"""Multi-mode locks.

A lock can carry several modes at once (a SIREAD plus the owner's own
insert-intention claim); these tests pin down the mode-set semantics,
which do not depend on the resource kind, and that a scan's key range
keeps covering the keys between two rows after an insert splits them.
"""

from dataclasses import dataclass

import pytest

from repro.locking.manager import LockManager, record_resource
from repro.locking.modes import LockMode

S, X, SIREAD, II = (
    LockMode.SHARED,
    LockMode.EXCLUSIVE,
    LockMode.SIREAD,
    LockMode.INSERT_INTENTION,
)


@dataclass
class Owner:
    id: int
    begin_ts: int = 0


@pytest.fixture
def lm():
    return LockManager()


SLOT = record_resource("t", 10)


class TestModeSets:
    def test_siread_survives_insert_intention(self, lm):
        """The fix for the phantom-sentinel bug: II must not replace a
        SIREAD held by the same transaction."""
        owner = Owner(1)
        lm.acquire(owner, SLOT, SIREAD)
        lm.acquire(owner, SLOT, II)
        assert lm.holds(owner, SLOT, SIREAD)
        assert lm.holds(owner, SLOT, II)

    def test_combined_lock_still_detected_by_writers(self, lm):
        scanner = Owner(1)
        inserter = Owner(2)
        lm.acquire(scanner, SLOT, SIREAD)
        lm.acquire(scanner, SLOT, II)  # the scanner's own writer claim
        result = lm.acquire(inserter, SLOT, II)
        assert result.granted
        assert [l.owner_id for l in result.detection_conflicts] == [1]

    def test_exclusive_discards_siread_on_upgrade(self, lm):
        owner = Owner(1)
        rec = record_resource("t", 1)
        lm.acquire(owner, rec, SIREAD)
        lm.acquire(owner, rec, X)
        assert lm.holds(owner, rec, X)
        assert not lm.holds(owner, rec, SIREAD)

    def test_release_keep_siread_sheds_blocking_modes(self, lm):
        owner = Owner(1)
        waiter = Owner(2)
        lm.acquire(owner, SLOT, SIREAD)
        lm.acquire(owner, SLOT, II)
        blocked = lm.acquire(waiter, SLOT, S)  # SHARED blocked by II
        assert not blocked.granted
        lm.release_all(owner, keep_siread=True)
        assert lm.holds(owner, SLOT, SIREAD)
        assert not lm.holds(owner, SLOT, II)
        # SHARED vs the remaining SIREAD is compatible: waiter promoted.
        from repro.locking.manager import RequestState
        assert blocked.request.state is RequestState.GRANTED

    def test_exclusive_covers_weaker_requests(self, lm):
        owner = Owner(1)
        rec = record_resource("t", 1)
        lm.acquire(owner, rec, X)
        assert lm.acquire(owner, rec, S).granted
        assert lm.acquire(owner, rec, SIREAD).granted
        assert lm.holds(owner, rec, X)


class TestEndToEndGapSplit:
    def test_split_gap_still_detects_phantom(self):
        """Committed scanner; an insert splits the space between two
        rows it scanned; a second insert between the new neighbours must
        still conflict with the scanner's retained range SIREAD."""
        from repro import Database, EngineConfig
        from repro.errors import TransactionAbortedError

        db = Database(EngineConfig(record_history=True))
        db.create_table("t")
        db.load("t", [(0, "a"), (100, "z")])

        scanner = db.begin("ssi")
        scanner.scan("t", 0, 100)

        # `second` becomes concurrent with the scanner: its snapshot is
        # fixed before the scanner commits.
        second = db.begin("ssi")
        second.read("t", 0)

        scanner.commit()  # suspended with its range SIREAD (overlap: second)

        splitter = db.begin("ssi")
        splitter.insert("t", 50, "mid")   # splits (0, 100)
        splitter.commit()

        marked_before = db.tracker.stats["marked"]
        try:
            second.insert("t", 25, "sub")  # between 0 and the new 50
            second.commit()
        except TransactionAbortedError:
            pass
        # The retained range made the rw conflict between the committed
        # scanner and the concurrent inserter visible.
        assert db.tracker.stats["marked"] > marked_before
