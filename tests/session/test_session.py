"""Session layer: completion-driven waits, one driver per session.

From a plain thread the submitting thread drives its session — it runs
the invocation and blocks through each wait — so every case that waits
puts the waiting side on a thread of its own (``on_thread``), and the
rest of the test runs beside it."""

from __future__ import annotations

import sys
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
    scheduler = SessionScheduler(db)
    yield scheduler
    scheduler.shutdown()


def collect(session: Session, method: str, *args, **kwargs):
    """Submit and return (result, error) without raising."""
    box = {}

    def on_done(result, error):
        box["result"], box["error"] = result, error

    getattr(session, method)(*args, on_done=on_done, **kwargs)
    assert box, f"{method} did not complete on its driver"
    return box["result"], box["error"]


def on_thread(session: Session, method: str, *args, **kwargs):
    """Drive ``session.call(method, ...)`` from a new thread; returns the
    thread and a box that receives ``thread``, ``result`` and ``error``."""
    box = {}

    def drive():
        box["thread"] = threading.current_thread()
        try:
            box["result"] = session.call(method, *args, **kwargs)
            box["error"] = None
        except Exception as error:  # noqa: BLE001 - the test inspects it
            box["error"] = error

    thread = threading.Thread(target=drive)
    thread.start()
    return thread, box


def finish(thread: threading.Thread) -> None:
    thread.join(timeout=10)
    assert not thread.is_alive(), "the driving thread never finished"


def wait_suspended(scheduler: SessionScheduler, count: int = 1) -> None:
    deadline = time.monotonic() + 5
    while scheduler.suspended_sessions != count:
        assert time.monotonic() < deadline, "sessions never suspended"
        time.sleep(0.005)


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
    def test_blocked_session_holds_up_no_other_session(self, db, sched):
        """A session waiting on a lock holds its own driving thread and
        nothing else: another session keeps making progress beside it,
        and the waiter resumes on its own thread."""
        fill(db, "t", {"x": 0, "y": 0})
        blocker = sched.session()
        other = sched.session()
        blocker.call("begin", "s2pl")
        other.call("begin", "s2pl")
        other.call("read_for_update", "t", "x")  # exclusive on x

        thread, box = on_thread(blocker, "read", "t", "x")
        wait_suspended(sched)
        assert "result" not in box
        other.call("write", "t", "y", 7)
        assert other.call("read", "t", "y") == 7
        other.call("commit")  # releases x -> blocker resumes
        finish(thread)
        assert box["error"] is None and box["result"] == 0
        blocker.call("commit")

    def test_session_wait_metrics(self, db, sched):
        fill(db, "t", {"x": 0})
        holder, waiter = sched.session(), sched.session()
        holder.call("begin", "s2pl")
        holder.call("read_for_update", "t", "x")
        waiter.call("begin", "s2pl")
        thread, _box = on_thread(waiter, "read", "t", "x")
        wait_suspended(sched)
        snap = db.metrics.snapshot()
        assert snap["gauges"]["sessions_open"] == 2
        assert snap["gauges"]["sessions_suspended"] == 1
        holder.call("commit")
        finish(thread)
        waiter.call("commit")
        snap = db.metrics.snapshot()
        assert snap["histograms"]["session_wait_time"]["count"] >= 1

    def test_interrupt_wakes_suspended_lock_wait(self, db, sched):
        fill(db, "t", {"x": 0})
        holder, waiter = sched.session(), sched.session()
        holder.call("begin", "s2pl")
        holder.call("read_for_update", "t", "x")
        waiter.call("begin", "s2pl")
        thread, box = on_thread(waiter, "read", "t", "x")
        wait_suspended(sched)
        waiter.interrupt()
        finish(thread)
        assert isinstance(box["error"], TransactionAbortedError)
        assert waiter.txn is None
        holder.call("commit")
        # the interrupted waiter left nothing queued in the lock table
        assert db.locks.residue()["waiters"] == 0


class TestNoPolling:
    def test_session_wait_resolves_without_polling(self, db):
        """Session-mode variant of the no-poll regression: the default
        config (no lock timeout, immediate deadlocks) must never consult
        poll_waiters on the wait path."""
        assert db.needs_wait_polling is False
        polls = []
        real_poll = db.poll_waiters
        db.poll_waiters = lambda: polls.append(1) or real_poll()
        threads = threading.active_count()
        scheduler = SessionScheduler(db)
        try:
            assert threading.active_count() == threads  # no thread started
            fill(db, "t", {"x": 0})
            holder, waiter = scheduler.session(), scheduler.session()
            holder.call("begin", "s2pl")
            holder.call("read_for_update", "t", "x")
            waiter.call("begin", "s2pl")
            thread, box = on_thread(waiter, "read", "t", "x")
            wait_suspended(scheduler)
            holder.call("write", "t", "x", 5)
            holder.call("commit")
            finish(thread)
            assert box["result"] == 5
            waiter.call("commit")
            assert polls == []
        finally:
            scheduler.shutdown()
            db.poll_waiters = real_poll

    def test_lock_timeout_cancels_suspended_session(self):
        db = Database(EngineConfig(lock_timeout=0.05))
        threads = threading.active_count()
        scheduler = SessionScheduler(db)
        try:
            assert threading.active_count() == threads  # no thread started
            fill(db, "t", {"x": 0})
            holder, waiter = scheduler.session(), scheduler.session()
            holder.call("begin", "s2pl")
            holder.call("read_for_update", "t", "x")
            waiter.call("begin", "s2pl")
            # the waiter's own thread times the wait out
            with pytest.raises(LockTimeoutError):
                waiter.call("read", "t", "x")
            holder.call("abort")
        finally:
            scheduler.shutdown()

    def test_periodic_mode_sweeps_from_the_blocked_drivers(self):
        """PERIODIC deadlock detection in session mode: the threads
        driving the two suspended sessions must find and break the
        cycle — no other thread exists to poll for it."""
        db = Database(EngineConfig(deadlock_mode=DeadlockMode.PERIODIC))
        threads = threading.active_count()
        scheduler = SessionScheduler(db)
        try:
            assert threading.active_count() == threads  # no thread started
            fill(db, "t", {"x": 0, "y": 0})
            s1, s2 = scheduler.session(), scheduler.session()
            s1.call("begin", "s2pl")
            s2.call("begin", "s2pl")
            s1.call("read_for_update", "t", "x")
            s2.call("read_for_update", "t", "y")
            thread1, box1 = on_thread(s1, "read_for_update", "t", "y")
            thread2, box2 = on_thread(s2, "read_for_update", "t", "x")
            finish(thread1)
            finish(thread2)
            errors = [box1["error"], box2["error"]]
            # exactly one side is the deadlock victim
            assert sum(1 for e in errors if e is not None) == 1
            for session in (s1, s2):
                if session.txn is not None:
                    session.call("abort")
        finally:
            scheduler.shutdown()


class TestDeferrableSessions:
    def test_deferrable_begin_suspends_until_safe(self, db, sched):
        """A deferrable session begin returns at once; its first read
        suspends until the SafeSnapshotMonitor fires the safe verdict,
        while other sessions run beside it, and then holds no SIREAD."""
        fill(db, "t", {1: "a"})
        writer = db.begin("ssi")
        writer.read("t", 1)

        ro = sched.session()
        ro.call("begin", "ssi", deferrable=True)  # returns at once
        thread, box = on_thread(ro, "read", "t", 1)
        wait_suspended(sched)
        assert "result" not in box
        other = sched.session()
        other.call("begin", "si")
        assert other.call("read", "t", 1) == "a"
        other.call("commit")
        # harmless commit -> watch set drains -> safe verdict
        writer.write("t", 1, "w")
        writer.commit()
        finish(thread)
        assert box["error"] is None
        assert box["result"] == "a"  # the snapshot predates the commit
        assert ro.txn.snapshot_safe is True
        assert not db.locks.holds_any_siread(ro.txn)
        ro.call("commit")

    def test_unsafe_verdict_is_permanent_and_retakes_snapshot(self, db, sched):
        """An unsafe verdict can never flip back: the session must
        discard that snapshot, take a fresh one, and only then read."""
        fill(db, "t", {"x": 0, "y": 0, "z": 0})
        t_out = db.begin("ssi")
        pivot = db.begin("ssi")
        pivot.read("t", "x")
        t_out.write("t", "x", 1)
        t_out.commit()  # pivot -rw-> t_out, t_out committed early

        ro = sched.session()
        ro.call("begin", "ssi", deferrable=True)
        thread, box = on_thread(ro, "read", "t", "z")
        wait_suspended(sched)
        assert "result" not in box
        pivot.write("t", "z", 1)
        pivot.commit()  # out-edge to old committed t_out: UNSAFE verdict
        # the unsafe verdict resumes the session, which retakes a
        # snapshot; with no rw transaction left it is immediately safe
        finish(thread)
        assert box["error"] is None
        assert ro.txn.snapshot_safe is True
        stats = db.metrics.snapshot()["counters"]["safe_snapshots"]
        assert stats["unsafe"] >= 1
        # the fresh snapshot postdates both commits
        assert box["result"] == 1
        ro.call("commit")

    def test_interrupt_during_deferrable_wait(self, db, sched):
        fill(db, "t", {1: "a"})
        writer = db.begin("ssi")
        writer.read("t", 1)
        ro = sched.session()
        ro.call("begin", "ssi", deferrable=True)
        thread, box = on_thread(ro, "read", "t", 1)
        wait_suspended(sched)
        ro.interrupt()
        finish(thread)
        assert isinstance(box["error"], TransactionAbortedError)
        writer.commit()


class TestSessionStress:
    def test_smallbank_session_stress_is_serializable_and_clean(self):
        result = run_session_stress(
            make_smallbank(customers=25),
            level="ssi",
            sessions=24,
            txns_per_session=12,
            check_serializability=True,
        )
        assert result.commits + result.aborts == result.txns
        assert result.serializable is True
        assert result.lock_table_clean, result.describe()

    def test_hot_key_sessions_under_fast_thread_switching(self):
        """Resumes race their drivers' steps: with the interpreter
        switching threads every 10 µs, 16 sessions over 4 SmallBank
        customers under s2pl must still finish every transaction —
        a lost wake would hang a driver — serializably and clean."""
        box = {}

        def stress():
            box["result"] = run_session_stress(
                make_smallbank(customers=4),
                level="s2pl",
                sessions=16,
                txns_per_session=40,
                check_serializability=True,
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner = threading.Thread(target=stress)
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive(), "a session driver never woke"
        result = box["result"]
        assert result.commits + result.aborts == result.txns
        assert result.serializable is True
        assert result.lock_table_clean, result.describe()

    def test_sibench_session_stress_under_s2pl(self):
        result = run_session_stress(
            make_sibench(items=20),
            level="s2pl",
            sessions=12,
            txns_per_session=8,
            check_serializability=True,
        )
        assert result.serializable is True
        assert result.lock_table_clean, result.describe()
