"""Unit tests for the reader table of point SIREADs.

A point SIREAD (record or page) is an entry in the lock manager's reader
table, not a lock head.  These pin down the behaviours that layout must
keep: the SIREAD -> EXCLUSIVE upgrade (counted, queued at the front,
the entry dropped only under ``siread_upgrade``), retention across
commit until cleanup, abort dropping the entries, the introspection
queries, and a read its owner's own key range covers.
"""

from dataclasses import dataclass

import pytest

from repro.locking.manager import (
    AcquireStatus,
    LockManager,
    RequestState,
    page_resource,
    range_resource,
    record_resource,
)
from repro.locking.modes import LockMode

SIREAD, X = LockMode.SIREAD, LockMode.EXCLUSIVE
R = record_resource("t", 5)


@dataclass
class Owner:
    id: int
    begin_ts: int = 0


@pytest.fixture
def owners():
    return [Owner(i, begin_ts=i) for i in range(4)]


def ids(locks):
    return sorted(lock.owner.id for lock in locks)


class TestUpgrade:
    def test_siread_holder_upgrade_counts_and_queues_first(self, owners):
        lm = LockManager()
        holder, waiter, reader = owners[0], owners[1], owners[2]
        assert lm.acquire(holder, R, X).granted
        earlier = lm.acquire(waiter, R, X)
        assert earlier.status is AcquireStatus.WAIT
        assert ids(lm.acquire(reader, R, SIREAD).detection_conflicts) == [0]
        upgrades = lm.stats["upgrades"]
        upgrade = lm.acquire(reader, R, X)
        assert upgrade.status is AcquireStatus.WAIT
        assert lm.stats["upgrades"] == upgrades + 1
        assert [r.owner.id for r in lm.waiting_requests()] == [reader.id, waiter.id]
        dropped = lm.stats["siread_dropped"]
        lm.release_all(holder)
        assert upgrade.request.state is RequestState.GRANTED
        assert earlier.request.state is RequestState.WAITING
        # the grant from the queue drops the entry
        assert not lm.holds(reader, R, SIREAD)
        assert lm.holds(reader, R, X)
        assert lm.stats["siread_dropped"] == dropped + 1
        assert not lm.holds_any_siread(reader)
        assert lm.acquire(reader, R, X).granted  # the retry
        assert lm.stats["siread_dropped"] == dropped + 1

    def test_upgrade_off_keeps_the_entry_through_commit(self, owners):
        lm = LockManager(siread_upgrade=False)
        reader, writer = owners[0], owners[1]
        lm.acquire(reader, R, SIREAD)
        assert lm.acquire(reader, R, X).granted
        assert lm.stats["upgrades"] == 1
        assert lm.holds(reader, R, SIREAD) and lm.holds(reader, R, X)
        lm.release_all(reader, keep_siread=True)
        assert lm.holds(reader, R, SIREAD) and not lm.holds(reader, R, X)
        # the retained entry still meets a later writer
        assert ids(lm.acquire(writer, R, X).detection_conflicts) == [reader.id]
        assert lm.drop_siread_locks(reader) == 1
        assert not lm.holds(reader, R)
        assert not lm.holds_any_siread(reader)


class TestRetirement:
    def test_abort_drops_the_reader_entries(self, owners):
        lm = LockManager()
        reader, writer = owners[0], owners[1]
        for key in (1, 2, 3):
            lm.acquire(reader, record_resource("t", key), SIREAD)
        lm.acquire(reader, page_resource("t", 0), SIREAD)
        assert lm.table_size() == 4
        lm.release_all(reader)
        assert lm.table_size() == 0
        assert not lm.holds_any_siread(reader)
        assert lm.acquire(writer, record_resource("t", 2), X).detection_conflicts == []
        lm.release_all(writer)
        assert not any(lm.residue().values())

    def test_commit_keeps_entries_and_cleanup_drops_them(self, owners):
        lm = LockManager()
        reader = owners[0]
        lm.acquire(reader, record_resource("t", 1), SIREAD)
        lm.acquire(reader, record_resource("t", 2), X)
        lm.release_all(reader, keep_siread=True)
        assert lm.table_size() == 1 and lm.holds_any_siread(reader)
        assert lm.drop_siread_locks(reader) == 1
        assert not any(lm.residue().values())


class TestQueries:
    def test_queries_report_point_sireads(self, owners):
        lm = LockManager(siread_upgrade=False)
        reader, other = owners[0], owners[1]
        lm.acquire(reader, R, SIREAD)
        lm.acquire(other, R, SIREAD)
        lm.acquire(other, R, X)
        assert sorted((lock.owner.id, lock.mask) for lock in lm.locks_on(R)) == [
            (reader.id, SIREAD.bit), (other.id, SIREAD.bit | X.bit),
        ]
        assert [lock.modes for lock in lm.locks_held_by(other)] == [{SIREAD, X}]
        assert [lock.resource for lock in lm.locks_held_by(reader)] == [R]
        assert lm.holds(reader, R) and lm.holds(reader, R, SIREAD)
        assert not lm.holds(reader, R, X)
        assert lm.siread_lock_count() == 2

    def test_reread_adds_nothing_and_reports_nothing(self, owners):
        lm = LockManager()
        reader, writer = owners[0], owners[1]
        lm.acquire(reader, R, SIREAD)
        # the writer met the entry and reports the edge itself (Fig 3.5)
        assert ids(lm.acquire(writer, R, X).detection_conflicts) == [reader.id]
        acquires = lm.stats["acquires"]
        assert lm.acquire(reader, R, SIREAD).detection_conflicts == []
        assert lm.stats["acquires"] == acquires  # nothing was granted
        assert lm.table_size() == 2


class TestOwnRange:
    @pytest.mark.parametrize(
        "resource", [R, page_resource("t", 0)], ids=["record", "page"]
    )
    def test_covered_read_adds_no_entry_but_reports_writers(self, owners, resource):
        lm = LockManager()
        reader, writer = owners[0], owners[1]
        assert lm.acquire(writer, resource, X).granted
        assert ids(lm.acquire_range(reader, "t", 0, 10)) == (
            [writer.id] if resource.kind == "rec" else []
        )
        size = lm.table_size()
        result = lm.acquire(reader, resource, SIREAD, 5)
        assert ids(result.detection_conflicts) == [writer.id]
        assert lm.table_size() == size
        assert not lm.holds(reader, resource, SIREAD)
        # without the key it is a plain lock request: the entry is added
        assert ids(lm.acquire(reader, resource, SIREAD).detection_conflicts) == [writer.id]
        assert lm.table_size() == size + 1

    def test_read_outside_the_range_adds_an_entry(self, owners):
        lm = LockManager()
        reader = owners[0]
        lm.acquire_range(reader, "t", 0, 3)
        lm.acquire(reader, R, SIREAD, 5)
        assert lm.holds(reader, R, SIREAD)


class TestEscalation:
    def test_a_record_its_owner_also_writes_stays_put(self, owners):
        lm = LockManager(siread_upgrade=False)
        owner = owners[0]
        for key in (1, 5):
            lm.acquire(owner, record_resource("t", key), SIREAD)
        lm.acquire(owner, record_resource("t", 5), X)
        lm.escalate(budget=0)
        assert lm.stats["escalations"] == 0
        for key in (1, 2):
            lm.acquire(owner, record_resource("t", key + 1), SIREAD)
        lm.escalate(budget=0)
        assert lm.holds(owner, range_resource("t", 1, 3), SIREAD)
        assert lm.holds(owner, record_resource("t", 5), SIREAD)
        # the fold weighs 4 (itself and the three entries), key 5 one
        assert lm.drop_siread_locks(owner) == 5
