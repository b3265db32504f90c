"""Production SSI hardening tests (PR 6).

Four groups:

* **SIREAD escalation** — a tiny ``siread_budget`` forces record
  sentinels to coarser granularity.  Escalation must only ever *add*
  rw-antidependency edges (false-positive aborts), never lose one, and a
  budget large enough never to trip must be behaviourally invisible.
* **Safe snapshots** — a declared read-only transaction's snapshot
  becomes *safe* once no concurrent read/write transaction can complete
  a dangerous structure with it (Ports & Grittner §2.4); at that point
  its SIREADs drop immediately and it retains nothing at commit.
* **Deferrable read-only transactions** — ``begin(deferrable=True)``
  returns at once; the first read or scan waits for a safe snapshot,
  which then runs with zero SIREAD footprint.
* **Lock-wait regression** — a resolved lock request wakes its waiter
  through the event alone; the engine must not fall back to timeout
  polling when no deadline or periodic deadlock sweep needs one.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine.config import DeadlockMode, EngineConfig
from repro.engine.database import Database
from repro.errors import TransactionAbortedError, TransactionStateError
from repro.locking.manager import range_resource
from repro.sgt.checker import check_serializable

from tests.conftest import commit_outcomes, fill


def bounded_db(budget):
    return Database(EngineConfig(record_history=True, siread_budget=budget))


def skew_outcomes(budget, reads, written):
    """t1 reads ``reads`` (past a budget of 2 they fold into one range),
    t2 writes ``written`` — a key t1 never read — and then reads 9, which
    t1 writes: a real edge t2 -rw-> t1, and an edge t1 -rw-> t2 only if
    t1's fold covers ``written``."""
    db = (
        bounded_db(budget)
        if budget is not None
        else Database(EngineConfig(record_history=True))
    )
    fill(db, "t", {i: i for i in range(10)})
    t1 = db.begin("ssi")
    t2 = db.begin("ssi")
    outcomes = []
    try:
        for key in reads:
            t1.read("t", key)
        t2.write("t", written, "w")
        t2.read("t", 9)
        t1.write("t", 9, "x")
    except TransactionAbortedError as error:
        outcomes.append(error.reason)
    outcomes.extend(commit_outcomes(t1, t2))
    assert check_serializable(db.history).serializable
    return outcomes


class TestSireadEscalation:
    def test_budget_trips_and_coarse_lock_installed(self):
        """Three record SIREADs against a budget of two must escalate;
        the owner ends up holding one key range over their span, and
        re-reads under it add no record locks back."""
        db = bounded_db(2)
        fill(db, "t", {i: i for i in range(10)})
        t1 = db.begin("ssi")
        for key in (0, 4, 8):
            t1.read("t", key)
        assert db.locks.escalated_lock_count() == 1
        assert [lock.resource for lock in db.locks.locks_held_by(t1)] == [
            range_resource("t", 0, 8)
        ]
        # Covered reads: the range already protects them.
        t1.read("t", 2)
        t1.read("t", 6)
        assert db.locks.table_size() == 1
        t1.commit()

    def test_escalated_table_detects_edge_superset(self):
        """After escalation, a write to a key the reader never touched
        but its fold covers still raises the (false-positive) rw edge —
        so a cycle built from one real and one folded edge aborts a
        transaction that an unbounded engine would commit.  The committed
        subset stays serializable either way: escalation adds edges,
        never hides one."""
        unbounded = skew_outcomes(None, reads=(0, 4, 8), written=7)
        assert unbounded.count("commit") == 2  # only the real edge exists
        bounded = skew_outcomes(2, reads=(0, 4, 8), written=7)
        assert "unsafe" in bounded
        assert bounded.count("commit") <= 1

    def test_write_outside_the_fold_raises_no_edge(self):
        """The fold is exactly the span of what the reader held: a write
        past it is no edge, where a whole-table sentinel flagged one."""
        assert skew_outcomes(2, reads=(0, 1, 2), written=7) == [
            "commit", "commit"
        ]

    def test_fold_catches_insert_on_a_leaf_split_after_it(self):
        """A range covers keys no leaf holds yet, so an insert landing on
        a sibling that a split created after the fold is still caught
        with no lock replicated onto the new page."""
        db = Database(EngineConfig(siread_budget=2, page_size=4))
        fill(db, "t", {i: i for i in range(0, 40, 10)})
        reader = db.begin("ssi")
        for key in (0, 10, 30):
            reader.read("t", key)
        assert db.locks.escalated_lock_count() == 1
        table = db.table("t")
        leaf_at_fold = table.leaf_page_of(21)
        splitter = db.begin("si")
        for key in (1, 2, 3, 4, 5):
            splitter.insert("t", key, "split")
        splitter.commit()
        assert table.leaf_page_of(21) != leaf_at_fold
        writer = db.begin("ssi")
        writer.insert("t", 21, "phantom")
        assert writer.in_conflict, "the fold missed an insert after a split"
        assert reader.out_conflict
        writer.commit()
        reader.commit()

    def test_huge_budget_is_behaviourally_invisible(self):
        """A budget the workload never reaches must not change outcomes
        or ever install a coarse lock."""

        def run(budget):
            db = (
                Database(
                    EngineConfig(record_history=True, siread_budget=budget)
                )
                if budget is not None
                else Database(EngineConfig(record_history=True))
            )
            fill(db, "t", {i: i for i in range(10)})
            t1 = db.begin("ssi")
            t2 = db.begin("ssi")
            outcomes = []
            try:
                for key in (0, 1, 2):
                    t1.read("t", key)
                t2.write("t", 7, "w")
                t2.read("t", 9)
                t1.write("t", 9, "x")
            except TransactionAbortedError as error:
                outcomes.append(error.reason)
            outcomes.extend(commit_outcomes(t1, t2))
            return outcomes, db.locks.escalated_lock_count()

        huge, escalated = run(10**6)
        unbounded, _ = run(None)
        assert huge == unbounded
        assert escalated == 0


class TestSafeSnapshots:
    def test_quiescent_begin_is_immediately_safe(self, db):
        """With no concurrent read/write transaction there is nothing to
        watch: the snapshot is safe at begin and reads take no SIREADs."""
        fill(db, "t", {1: "a", 2: "b"})
        ro = db.begin("ssi", read_only=True)
        # The default config defers the snapshot to the first read; the
        # safety verdict arrives with it.
        assert ro.read("t", 1) == "a"
        assert ro.snapshot_safe is True
        assert db.locks.siread_lock_count() == 0
        ro.commit()
        stats = db.metrics.snapshot()["counters"]["safe_snapshots"]
        assert stats["safe_immediate"] >= 1

    def test_watched_commit_drains_to_safe_and_drops_sireads(self, db):
        """A read-only snapshot watching one harmless writer becomes safe
        the moment that writer commits without an outgoing rw edge — and
        its already-taken SIREADs drop on the spot."""
        fill(db, "t", {1: "a", 2: "b", 3: "c"})
        writer = db.begin("ssi")
        writer.read("t", 3)
        ro = db.begin("ssi", read_only=True)
        ro.read("t", 1)  # first read: snapshot assigned, monitor registers
        assert ro.snapshot_safe is False
        assert db.locks.siread_lock_count() >= 1
        writer.write("t", 3, "w")
        writer.commit()  # no out-conflict: the watch set drains
        assert ro.snapshot_safe is True
        # ro's sentinels dropped immediately; the writer's own retained
        # SIREAD (it read key 3) is the only one allowed to remain.
        assert db.locks.siread_lock_count() <= 1
        before = db.locks.table_size()
        ro.read("t", 2)  # safe reads are lock-free
        assert db.locks.table_size() == before
        ro.commit()
        stats = db.metrics.snapshot()["counters"]["safe_snapshots"]
        assert stats["safe"] >= 1

    def test_dangerous_commit_marks_snapshot_unsafe(self, db):
        """A watched pivot committing with an out-edge to a transaction
        that committed before the read-only snapshot completes a
        dangerous structure the snapshot can still join: the verdict is
        permanently unsafe and SIREAD retention stays on."""
        fill(db, "t", {"x": 0, "y": 0, "z": 0})
        t_out = db.begin("ssi")
        pivot = db.begin("ssi")
        pivot.read("t", "x")
        t_out.write("t", "x", 1)
        t_out.commit()  # pivot -rw-> t_out, t_out committed early
        ro = db.begin("ssi", read_only=True)
        ro.read("t", "y")  # snapshot assigned here; pivot is watched
        assert ro.snapshot_safe is False
        pivot.write("t", "z", 1)
        pivot.commit()  # out-edge to old committed t_out: dangerous
        assert ro.snapshot_safe is False
        assert db.locks.siread_lock_count() >= 1  # retention still on
        ro.commit()
        stats = db.metrics.snapshot()["counters"]["safe_snapshots"]
        assert stats["unsafe"] >= 1

    def test_read_only_declaration_rejects_mutations(self, db):
        fill(db, "t", {1: "a"})
        ro = db.begin("ssi", read_only=True)
        with pytest.raises(TransactionStateError):
            ro.write("t", 1, "x")
        with pytest.raises(TransactionStateError):
            ro.insert("t", 9, "x")
        with pytest.raises(TransactionStateError):
            ro.delete("t", 1)
        with pytest.raises(TransactionStateError):
            ro.read_for_update("t", 1)
        assert ro.read("t", 1) == "a"  # still a usable reader
        ro.commit()


class TestDeferrable:
    def test_deferrable_on_quiescent_engine_runs_lock_free(self, db):
        fill(db, "t", {i: i for i in range(5)})
        ro = db.begin("ssi", deferrable=True)
        assert ro.read_only is True
        assert ro.snapshot is None  # begin takes no snapshot
        rows = dict(ro.scan("t"))  # the first scan takes one, safe at once
        assert ro.snapshot_safe is True
        assert rows == {i: i for i in range(5)}
        assert db.locks.siread_lock_count() == 0
        ro.commit()
        # Zero retention: nothing suspended, nothing kept findable.
        assert not db._suspended
        assert db.find_transaction(ro.id) is None

    def test_deferrable_blocks_until_safe(self, db):
        """begin(deferrable=True) with a concurrent writer returns at
        once; the first read waits for that writer to finish, then runs
        on a safe snapshot without a SIREAD."""
        fill(db, "t", {1: "a"})
        writer = db.begin("ssi")
        writer.read("t", 1)
        ro = db.begin("ssi", deferrable=True)  # returns at once
        assert ro.snapshot is None
        started = threading.Event()
        box = {}

        def first_read():
            started.set()
            box["value"] = ro.read("t", 1)

        thread = threading.Thread(target=first_read)
        thread.start()
        started.wait(timeout=5)
        thread.join(timeout=0.2)
        assert thread.is_alive()  # still parked on the safe-snapshot wait
        writer.write("t", 1, "w")
        writer.commit()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert ro.snapshot_safe is True
        # Safe need not mean fresh: the snapshot predates the harmless
        # commit, it just provably cannot join a dangerous structure.
        assert box["value"] == "a"
        assert not db.locks.holds_any_siread(ro)
        ro.commit()

    def test_deferrable_commit_without_reading_never_waits(self, db):
        """The wait belongs to the first read: a deferrable transaction
        that never reads commits at once, beside an open writer."""
        fill(db, "t", {1: "a"})
        writer = db.begin("ssi")
        writer.read("t", 1)
        ro = db.begin("ssi", deferrable=True)
        db.commit(ro)  # returns: no read, so no snapshot and no wait
        assert ro.is_committed
        assert ro.snapshot is None
        assert db.find_transaction(ro.id) is None
        writer.commit()

    def test_deferrable_under_non_certifying_level_is_trivial(self, db):
        """Plain SI retains nothing, so every snapshot is trivially safe
        and deferrable must not block."""
        fill(db, "t", {1: "a"})
        writer = db.begin("si")
        writer.read("t", 1)
        ro = db.begin("si", deferrable=True)  # must not wait on `writer`
        assert ro.read("t", 1) == "a"
        ro.commit()
        writer.commit()


class TestLockWaitWakeup:
    def test_resolved_request_wakes_without_polling(self, db, monkeypatch):
        """Satellite regression: with no lock timeout and immediate
        deadlock detection the blocked side must sleep on the event
        alone — zero poll_waiters fallback calls."""
        assert db.needs_wait_polling is False
        polls = []
        real_poll = db.poll_waiters
        monkeypatch.setattr(
            db, "poll_waiters", lambda: polls.append(1) or real_poll()
        )
        fill(db, "t", {1: "a"})
        holder = db.begin("s2pl")
        holder.write("t", 1, "h")
        blocked_value = {}
        entered = threading.Event()

        def reader():
            txn = db.begin("s2pl")
            entered.set()
            blocked_value["v"] = txn.read("t", 1)  # blocks on holder's X
            txn.commit()

        thread = threading.Thread(target=reader)
        thread.start()
        entered.wait(timeout=5)
        # Give the reader time to reach (and park in) the lock wait.
        thread.join(timeout=0.2)
        holder.commit()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert blocked_value["v"] == "h"
        assert polls == []

    def test_periodic_deadlock_mode_still_polls(self):
        """PERIODIC detection has no lock-wait graph to resolve waits
        eagerly, so the poll fallback must stay on."""
        db = Database(EngineConfig(deadlock_mode=DeadlockMode.PERIODIC))
        assert db.needs_wait_polling is True
