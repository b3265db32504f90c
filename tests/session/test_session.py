"""Session layer: N sessions : M threads, completion-driven waits."""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine.config import DeadlockMode, EngineConfig
from repro.engine.database import Database
from repro.errors import (
    KeyNotFoundError,
    LockTimeoutError,
    TransactionAbortedError,
    TransactionStateError,
)
from repro.exec import run_session_stress
from repro.session import Session, SessionClosedError, SessionScheduler
from repro.workloads import make_sibench, make_smallbank

from tests.conftest import fill


@pytest.fixture
def sched(db):
    scheduler = SessionScheduler(db, workers=2)
    yield scheduler
    scheduler.shutdown()


def collect(session: Session, method: str, *args, **kwargs):
    """Submit and return (result, error) without raising."""
    done = threading.Event()
    box = {}

    def on_done(result, error):
        box["result"], box["error"] = result, error
        done.set()

    getattr(session, method)(*args, on_done=on_done, **kwargs)
    assert done.wait(timeout=10), f"{method} never completed"
    return box["result"], box["error"]


class TestSessionBasics:
    def test_full_engine_surface(self, db, sched):
        fill(db, "t", {1: "a", 2: "b"})
        session = sched.session()
        assert isinstance(session.call("begin", "ssi"), int)
        assert session.call("read", "t", 1) == "a"
        assert session.call("get", "t", 99, "dflt") == "dflt"
        session.call("write", "t", 1, "A")
        session.call("insert", "t", 3, "c")
        session.call("delete", "t", 2)
        assert session.call("scan", "t") == [(1, "A"), (3, "c")]
        session.call("commit")
        assert session.txn is None
        # engine state really committed
        check = db.begin("si")
        assert check.read("t", 1) == "A"
        check.commit()

    def test_errors_are_delivered_not_raised_in_worker(self, db, sched):
        fill(db, "t", {1: "a"})
        session = sched.session()
        session.call("begin", "ssi")
        result, error = collect(session, "read", "t", 404)
        assert isinstance(error, KeyNotFoundError)
        # the session survives a failed op
        assert session.call("read", "t", 1) == "a"
        session.call("abort")

    def test_op_without_txn_fails(self, db, sched):
        session = sched.session()
        result, error = collect(session, "read", "t", 1)
        assert isinstance(error, TransactionStateError)

    def test_close_rejects_future_work(self, db, sched):
        session = sched.session()
        session.call("begin", "ssi")
        session.call("close")
        result, error = collect(session, "begin", "ssi")
        assert isinstance(error, SessionClosedError)
        assert sched.open_sessions == 0

    def test_read_only_session_surface(self, db, sched):
        fill(db, "t", {1: "a"})
        session = sched.session()
        session.call("begin", "ssi", True)  # read_only
        assert session.call("read", "t", 1) == "a"
        result, error = collect(session, "write", "t", 1, "x")
        assert isinstance(error, TransactionStateError)
        session.call("commit")


class TestSuspension:
    def test_blocked_session_frees_its_worker(self, db):
        """Two sessions, ONE worker: with thread-blocking waits the
        second session could never run while the first is blocked —
        suspension is what makes 1024-connections-on-8-threads work."""
        scheduler = SessionScheduler(db, workers=1)
        try:
            fill(db, "t", {"x": 0, "y": 0})
            blocker = scheduler.session()
            other = scheduler.session()
            blocker.call("begin", "s2pl")
            other.call("begin", "s2pl")
            other.call("read_for_update", "t", "x")  # exclusive on x

            woke = {}
            resumed = threading.Event()
            blocker.read(
                "t", "x",
                on_done=lambda r, e: (woke.update(r=r, e=e), resumed.set()),
            )
            deadline = time.monotonic() + 5
            while scheduler.suspended_sessions != 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            assert not resumed.is_set()
            # the single worker is free: `other` keeps making progress
            other.call("write", "t", "y", 7)
            assert other.call("read", "t", "y") == 7
            other.call("commit")  # releases x -> blocker resumes
            assert resumed.wait(timeout=10)
            assert woke["e"] is None and woke["r"] == 0
            blocker.call("commit")
        finally:
            scheduler.shutdown()

    def test_session_wait_metrics(self, db):
        scheduler = SessionScheduler(db, workers=1)
        try:
            fill(db, "t", {"x": 0})
            holder, waiter = scheduler.session(), scheduler.session()
            holder.call("begin", "s2pl")
            holder.call("read_for_update", "t", "x")
            waiter.call("begin", "s2pl")
            resumed = threading.Event()
            waiter.read("t", "x", on_done=lambda r, e: resumed.set())
            deadline = time.monotonic() + 5
            while scheduler.suspended_sessions != 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            snap = db.metrics.snapshot()
            assert snap["gauges"]["sessions_open"] == 2
            assert snap["gauges"]["sessions_suspended"] == 1
            holder.call("commit")
            assert resumed.wait(timeout=10)
            waiter.call("commit")
            snap = db.metrics.snapshot()
            assert snap["histograms"]["session_wait_time"]["count"] >= 1
        finally:
            scheduler.shutdown()

    def test_interrupt_wakes_suspended_lock_wait(self, db):
        scheduler = SessionScheduler(db, workers=1)
        try:
            fill(db, "t", {"x": 0})
            holder, waiter = scheduler.session(), scheduler.session()
            holder.call("begin", "s2pl")
            holder.call("read_for_update", "t", "x")
            waiter.call("begin", "s2pl")
            box = {}
            resumed = threading.Event()
            waiter.read("t", "x",
                        on_done=lambda r, e: (box.update(e=e), resumed.set()))
            deadline = time.monotonic() + 5
            while scheduler.suspended_sessions != 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            waiter.interrupt()
            assert resumed.wait(timeout=10)
            assert isinstance(box["e"], TransactionAbortedError)
            assert waiter.txn is None
            holder.call("commit")
            # the interrupted waiter left nothing queued in the lock table
            assert db.locks.residue()["waiters"] == 0
        finally:
            scheduler.shutdown()


class TestNoPolling:
    def test_session_wait_resolves_without_polling(self, db):
        """Session-mode variant of the no-poll regression: the default
        config (no lock timeout, immediate deadlocks) must start no tick
        thread and never consult poll_waiters on the wait path."""
        assert db.needs_wait_polling is False
        polls = []
        real_poll = db.poll_waiters
        db.poll_waiters = lambda: polls.append(1) or real_poll()
        scheduler = SessionScheduler(db, workers=1)
        try:
            assert scheduler._ticker is None  # nothing to poll for
            fill(db, "t", {"x": 0})
            holder, waiter = scheduler.session(), scheduler.session()
            holder.call("begin", "s2pl")
            holder.call("read_for_update", "t", "x")
            waiter.call("begin", "s2pl")
            resumed = threading.Event()
            box = {}
            waiter.read("t", "x",
                        on_done=lambda r, e: (box.update(r=r), resumed.set()))
            deadline = time.monotonic() + 5
            while scheduler.suspended_sessions != 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            holder.call("write", "t", "x", 5)
            holder.call("commit")
            assert resumed.wait(timeout=10)
            assert box["r"] == 5
            waiter.call("commit")
            assert polls == []
        finally:
            scheduler.shutdown()
            db.poll_waiters = real_poll

    def test_lock_timeout_cancels_suspended_session(self):
        db = Database(EngineConfig(lock_timeout=0.05))
        scheduler = SessionScheduler(db, workers=1)
        try:
            assert scheduler._ticker is not None
            fill(db, "t", {"x": 0})
            holder, waiter = scheduler.session(), scheduler.session()
            holder.call("begin", "s2pl")
            holder.call("read_for_update", "t", "x")
            waiter.call("begin", "s2pl")
            box = {}
            resumed = threading.Event()
            waiter.read("t", "x",
                        on_done=lambda r, e: (box.update(e=e), resumed.set()))
            assert resumed.wait(timeout=10)
            assert isinstance(box["e"], LockTimeoutError)
            holder.call("abort")
        finally:
            scheduler.shutdown()

    def test_periodic_mode_sweeps_from_the_ticker(self):
        """PERIODIC deadlock detection in session mode: the scheduler's
        tick thread must find and break the cycle — no client thread
        exists to poll for it."""
        db = Database(EngineConfig(deadlock_mode=DeadlockMode.PERIODIC))
        scheduler = SessionScheduler(db, workers=2)
        try:
            assert scheduler._ticker is not None
            fill(db, "t", {"x": 0, "y": 0})
            s1, s2 = scheduler.session(), scheduler.session()
            s1.call("begin", "s2pl")
            s2.call("begin", "s2pl")
            s1.call("read_for_update", "t", "x")
            s2.call("read_for_update", "t", "y")
            outcomes = {}
            done1, done2 = threading.Event(), threading.Event()
            s1.read_for_update(
                "t", "y", on_done=lambda r, e: (outcomes.update(e1=e), done1.set()))
            s2.read_for_update(
                "t", "x", on_done=lambda r, e: (outcomes.update(e2=e), done2.set()))
            assert done1.wait(timeout=10) and done2.wait(timeout=10)
            errors = [outcomes["e1"], outcomes["e2"]]
            # exactly one side is the deadlock victim
            assert sum(1 for e in errors if e is not None) == 1
            for session in (s1, s2):
                if session.txn is not None:
                    session.call("abort")
        finally:
            scheduler.shutdown()


class TestDeferrableSessions:
    def test_deferrable_begin_suspends_until_safe(self, db):
        """A deferrable session begin must suspend — not park a worker —
        until the SafeSnapshotMonitor fires the safe verdict."""
        scheduler = SessionScheduler(db, workers=1)
        try:
            fill(db, "t", {1: "a"})
            writer = db.begin("ssi")
            writer.read("t", 1)

            ro = scheduler.session()
            box = {}
            begun = threading.Event()
            ro.begin("ssi", deferrable=True,
                     on_done=lambda r, e: (box.update(r=r, e=e), begun.set()))
            deadline = time.monotonic() + 5
            while scheduler.suspended_sessions != 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            assert not begun.is_set()
            # the single worker is NOT burned by the deferrable wait:
            other = scheduler.session()
            other.call("begin", "si")
            assert other.call("read", "t", 1) == "a"
            other.call("commit")
            # harmless commit -> watch set drains -> safe verdict
            writer.write("t", 1, "w")
            writer.commit()
            assert begun.wait(timeout=10)
            assert box["e"] is None
            assert ro.txn.snapshot_safe is True
            assert ro.call("read", "t", 1) == "a"  # snapshot predates commit
            ro.call("commit")
        finally:
            scheduler.shutdown()

    def test_unsafe_verdict_is_permanent_and_retakes_snapshot(self, db):
        """An unsafe verdict can never flip back: the session must
        discard that snapshot, take a fresh one, and only then begin."""
        fill(db, "t", {"x": 0, "y": 0, "z": 0})
        t_out = db.begin("ssi")
        pivot = db.begin("ssi")
        pivot.read("t", "x")
        t_out.write("t", "x", 1)
        t_out.commit()  # pivot -rw-> t_out, t_out committed early

        scheduler = SessionScheduler(db, workers=1)
        try:
            ro = scheduler.session()
            box = {}
            begun = threading.Event()
            ro.begin("ssi", deferrable=True,
                     on_done=lambda r, e: (box.update(r=r, e=e), begun.set()))
            deadline = time.monotonic() + 5
            while scheduler.suspended_sessions != 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            assert not begun.is_set()
            pivot.write("t", "z", 1)
            pivot.commit()  # out-edge to old committed t_out: UNSAFE verdict
            # the unsafe verdict resumes the session, which retakes a
            # snapshot; with no rw transaction left it is immediately safe
            assert begun.wait(timeout=10)
            assert box["e"] is None
            assert ro.txn.snapshot_safe is True
            stats = db.metrics.snapshot()["counters"]["safe_snapshots"]
            assert stats["unsafe"] >= 1
            # the fresh snapshot postdates both commits
            assert ro.call("read", "t", "z") == 1
            ro.call("commit")
        finally:
            scheduler.shutdown()

    def test_interrupt_during_deferrable_wait(self, db):
        fill(db, "t", {1: "a"})
        writer = db.begin("ssi")
        writer.read("t", 1)
        scheduler = SessionScheduler(db, workers=1)
        try:
            ro = scheduler.session()
            box = {}
            begun = threading.Event()
            ro.begin("ssi", deferrable=True,
                     on_done=lambda r, e: (box.update(e=e), begun.set()))
            deadline = time.monotonic() + 5
            while scheduler.suspended_sessions != 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            ro.interrupt()
            assert begun.wait(timeout=10)
            assert isinstance(box["e"], TransactionAbortedError)
            writer.commit()
        finally:
            scheduler.shutdown()


class TestSessionStress:
    def test_smallbank_session_stress_is_serializable_and_clean(self):
        result = run_session_stress(
            make_smallbank(customers=25),
            level="ssi",
            sessions=24,
            workers=3,
            txns_per_session=12,
            check_serializability=True,
        )
        assert result.commits + result.aborts == result.txns
        assert result.serializable is True
        assert result.lock_table_clean, result.describe()

    def test_sibench_session_stress_under_s2pl(self):
        result = run_session_stress(
            make_sibench(items=20),
            level="s2pl",
            sessions=12,
            workers=2,
            txns_per_session=8,
            check_serializability=True,
        )
        assert result.serializable is True
        assert result.lock_table_clean, result.describe()
