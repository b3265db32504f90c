"""Lock manager unit tests: grants, queuing, upgrades, SIREAD handling."""

from dataclasses import dataclass, field

import pytest

from repro.locking.manager import (
    AcquireStatus,
    LockManager,
    RequestState,
    range_resource,
    record_resource,
)
from repro.locking.modes import LockMode

S, X, SIREAD = LockMode.SHARED, LockMode.EXCLUSIVE, LockMode.SIREAD


@dataclass
class Owner:
    id: int
    begin_ts: int = 0


@pytest.fixture
def lm():
    return LockManager()


@pytest.fixture
def owners():
    return [Owner(i, begin_ts=i) for i in range(8)]


R = record_resource("t", "k")
R2 = record_resource("t", "k2")


class TestBasicGrants:
    def test_fresh_grant(self, lm, owners):
        result = lm.acquire(owners[0], R, X)
        assert result.granted
        assert lm.holds(owners[0], R, X)

    def test_shared_coexist(self, lm, owners):
        assert lm.acquire(owners[0], R, S).granted
        assert lm.acquire(owners[1], R, S).granted
        assert len(lm.locks_on(R)) == 2

    def test_exclusive_blocks_shared(self, lm, owners):
        lm.acquire(owners[0], R, X)
        result = lm.acquire(owners[1], R, S)
        assert result.status is AcquireStatus.WAIT
        assert result.request.state is RequestState.WAITING

    def test_idempotent_reacquire(self, lm, owners):
        lm.acquire(owners[0], R, X)
        again = lm.acquire(owners[0], R, X)
        assert again.granted
        assert len(lm.locks_on(R)) == 1

    def test_weaker_request_noop_when_stronger_held(self, lm, owners):
        lm.acquire(owners[0], R, X)
        assert lm.acquire(owners[0], R, S).granted
        assert lm.holds(owners[0], R, X)  # still exclusive


class TestFifoAndPromotion:
    def test_release_promotes_in_fifo_order(self, lm, owners):
        lm.acquire(owners[0], R, X)
        wait1 = lm.acquire(owners[1], R, X).request
        wait2 = lm.acquire(owners[2], R, X).request
        lm.release_all(owners[0])
        assert wait1.state is RequestState.GRANTED
        assert wait2.state is RequestState.WAITING
        lm.release_all(owners[1])
        assert wait2.state is RequestState.GRANTED

    def test_release_grants_all_compatible_waiters(self, lm, owners):
        lm.acquire(owners[0], R, X)
        waits = [lm.acquire(owners[i], R, S).request for i in (1, 2, 3)]
        lm.release_all(owners[0])
        assert all(w.state is RequestState.GRANTED for w in waits)

    def test_fresh_shared_queues_behind_waiting_exclusive(self, lm, owners):
        lm.acquire(owners[0], R, S)
        blocked_x = lm.acquire(owners[1], R, X)
        assert blocked_x.status is AcquireStatus.WAIT
        # FIFO fairness: a later SHARED must not starve the writer.
        late_s = lm.acquire(owners[2], R, S)
        assert late_s.status is AcquireStatus.WAIT

    def test_cancel_waits_unblocks_queue(self, lm, owners):
        lm.acquire(owners[0], R, X)
        first = lm.acquire(owners[1], R, X).request
        second = lm.acquire(owners[2], R, X).request
        error = RuntimeError("doomed")
        lm.cancel_waits(owners[1], error)
        assert first.state is RequestState.DENIED
        assert first.error is error
        lm.release_all(owners[0])
        assert second.state is RequestState.GRANTED


class TestUpgrades:
    def test_shared_to_exclusive_upgrade_when_alone(self, lm, owners):
        lm.acquire(owners[0], R, S)
        result = lm.acquire(owners[0], R, X)
        assert result.granted
        assert lm.holds(owners[0], R, X)
        assert len(lm.locks_on(R)) == 1

    def test_upgrade_waits_for_other_shared(self, lm, owners):
        lm.acquire(owners[0], R, S)
        lm.acquire(owners[1], R, S)
        result = lm.acquire(owners[0], R, X)
        assert result.status is AcquireStatus.WAIT
        lm.release_all(owners[1])
        assert result.request.state is RequestState.GRANTED
        assert lm.holds(owners[0], R, X)

    def test_upgrader_jumps_plain_queue(self, lm, owners):
        lm.acquire(owners[0], R, S)
        lm.acquire(owners[1], R, S)
        plain = lm.acquire(owners[2], R, X).request
        upgrade = lm.acquire(owners[1], R, X).request
        lm.release_all(owners[0])
        assert upgrade.state is RequestState.GRANTED
        assert plain.state is RequestState.WAITING


class TestSiread:
    def test_siread_never_waits_even_under_exclusive(self, lm, owners):
        lm.acquire(owners[0], R, X)
        result = lm.acquire(owners[1], R, SIREAD)
        assert result.granted
        # ... and reports the exclusive holder for conflict marking.
        assert [l.owner_id for l in result.detection_conflicts] == [0]

    def test_exclusive_ignores_siread_but_reports_it(self, lm, owners):
        lm.acquire(owners[0], R, SIREAD)
        result = lm.acquire(owners[1], R, X)
        assert result.granted
        assert [l.owner_id for l in result.detection_conflicts] == [0]

    def test_release_keep_siread(self, lm, owners):
        lm.acquire(owners[0], R, SIREAD)
        lm.acquire(owners[0], R2, X)
        lm.release_all(owners[0], keep_siread=True)
        assert lm.holds(owners[0], R, SIREAD)
        assert not lm.holds(owners[0], R2)
        assert lm.holds_any_siread(owners[0])

    def test_drop_siread_locks(self, lm, owners):
        lm.acquire(owners[0], R, SIREAD)
        lm.acquire(owners[0], R2, SIREAD)
        assert lm.drop_siread_locks(owners[0]) == 2
        assert not lm.holds_any_siread(owners[0])
        assert lm.table_size() == 0

    def test_siread_upgraded_to_exclusive_is_not_kept(self, lm, owners):
        # Section 3.7.3: read-modify-write keeps only the EXCLUSIVE lock.
        lm.acquire(owners[0], R, SIREAD)
        result = lm.acquire(owners[0], R, X)
        assert result.granted
        assert lm.holds(owners[0], R, X)
        lm.release_all(owners[0], keep_siread=True)
        assert not lm.holds(owners[0], R)

    def test_multiple_sireads_on_one_item(self, lm, owners):
        for i in range(4):
            assert lm.acquire(owners[i], R, SIREAD).granted
        assert len(lm.locks_on(R)) == 4

    def test_mode_counts_do_not_wrap(self, lm):
        """65 537 scans of one range: the head's SIREAD count stays exact,
        and retiring one of them leaves the range detecting every other
        reader (a 16-bit count field carried into the next mode's)."""
        readers = [Owner(i) for i in range(1 << 16 | 1)]
        for reader in readers:
            lm.acquire_range(reader, "t", None, None, SIREAD)
        head = lm._heads[range_resource("t", None, None)]
        assert head.mode_count(SIREAD) == len(readers)
        assert head.mode_count(X) == 0
        lm.drop_siread_locks(readers[0])
        assert head.mode_count(SIREAD) == len(readers) - 1
        writer = Owner(-1)
        result = lm.acquire(writer, record_resource("t", 5), X)
        assert result.granted
        assert len(result.detection_conflicts) == len(readers) - 1


class TestResources:
    def test_range_and_record_are_distinct(self, lm, owners):
        # A key range is a lock-table entry of its own: a SHARED range
        # over [0, 10] makes a writer of a key inside it wait, leaves a
        # writer outside it alone, and takes no record lock of its own.
        lm.acquire_range(owners[0], "t", 0, 10, S)
        assert lm.acquire(owners[1], record_resource("t", 20), X).granted
        assert not lm.acquire(owners[2], record_resource("t", 5), X).granted
        assert lm.acquire(owners[0], record_resource("t", 5), S).granted
        assert lm.table_size() == 3

    def test_table_size_counts_granted(self, lm, owners):
        lm.acquire(owners[0], R, S)
        lm.acquire(owners[1], R, S)
        lm.acquire(owners[0], R2, X)
        assert lm.table_size() == 3


class TestStats:
    def test_wait_and_acquire_counters(self, lm, owners):
        lm.acquire(owners[0], R, X)
        lm.acquire(owners[1], R, X)
        assert lm.stats["acquires"] == 2
        assert lm.stats["waits"] == 1


class TestKeyRanges:
    def test_shared_range_queues_writers_inside_it(self, lm, owners):
        reader, writer = owners[0], owners[1]
        lm.acquire_range(reader, "t", 0, 10, S)
        waiting = lm.acquire(writer, record_resource("t", 5), X)
        assert waiting.status is AcquireStatus.WAIT
        assert waiting.request.resource == range_resource("t", 0, 10)
        assert waiting.request.mode is LockMode.INSERT_INTENTION
        assert not lm.holds(writer, record_resource("t", 5))
        lm.release_all(reader)
        assert waiting.request.state is RequestState.GRANTED
        assert lm.acquire(writer, record_resource("t", 5), X).granted

    def test_only_siread_ranges_stand_in_for_siread(self, lm, owners):
        reader, writer, other = owners[0], owners[1], owners[2]
        lm.acquire_range(reader, "t", 0, 10, S)
        assert lm.holds_range_over(reader, "t", 5, S)
        assert not lm.holds_range_over(reader, "t", 5)
        assert lm.probe_ranges(other, "t", 5) == []
        lm.acquire(writer, record_resource("t", 5), X)
        lm.release_all(reader)
        # The promoted writer now holds INSERT_INTENTION on the range.
        assert lm.holds(writer, range_resource("t", 0, 10), LockMode.INSERT_INTENTION)
        assert not lm.holds_range_over(writer, "t", 5)
        assert lm.probe_ranges(other, "t", 5) == []
        lm.escalate(0)
        assert lm.holds(writer, range_resource("t", 0, 10), LockMode.INSERT_INTENTION)

    def test_shared_reader_skips_writers_it_holds_back(self, lm, owners):
        reader, writer = owners[0], owners[1]
        lm.acquire_range(reader, "t", 0, 10, S)
        assert lm.acquire(writer, record_resource("t", 20), X).granted
        assert not lm.acquire(writer, record_resource("t", 5), X).granted
        assert lm.acquire_range(reader, "t", 15, 25, S) == []
        assert [lock.owner for lock in lm.acquire_range(owners[2], "t", 15, 25, S)] == [writer]
