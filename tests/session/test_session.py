"""Session layer: completion-driven waits, one event loop per session.

Every case runs its sessions on one event loop (``on_loop``), as the
wire server does.  An invocation that waits returns a pending future, and
the rest of the test runs beside it on the same loop; the loop-bound
invariants — a wake or an interrupt from a foreign OS thread, a submit
from a thread with no loop — have cases of their own."""

from __future__ import annotations

import asyncio
import functools
import random
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
from repro.exec.stress import drive_threads
from repro.session import SessionClosedError, SessionScheduler
from repro.sgt.checker import check_serializable
from repro.sim.ops import ABORTS, abort_reason
from repro.workloads import make_sibench, make_smallbank

from tests.conftest import fill


def on_loop(test):
    """Run an ``async def`` test on a fresh event loop, bounded by a
    timeout: a lost wake leaves a future pending forever."""
    @functools.wraps(test)
    def run(*args, **kwargs):
        async def bounded():
            async with asyncio.timeout(10):
                return await test(*args, **kwargs)

        return asyncio.run(bounded())

    return run


@pytest.fixture
def sched(db):
    scheduler = SessionScheduler(db)
    yield scheduler
    scheduler.shutdown()


def on_thread(target) -> None:
    """Run ``target`` on a new OS thread and wait for it (the loop does
    not run meanwhile, so whatever it fires is handled afterwards)."""
    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestSessionBasics:
    @on_loop
    async def test_full_engine_surface(self, db, sched):
        fill(db, "t", {1: "a", 2: "b"})
        session = sched.session()
        assert isinstance(await session.invoke("begin", "ssi"), int)
        assert await session.invoke("read", "t", 1) == "a"
        assert await session.invoke("get", "t", 99, "dflt") == "dflt"
        await session.invoke("write", "t", 1, "A")
        await session.invoke("insert", "t", 3, "c")
        await session.invoke("delete", "t", 2)
        assert await session.invoke("scan", "t") == [(1, "A"), (3, "c")]
        await session.invoke("commit")
        assert session.txn is None
        # engine state really committed
        check = db.begin("si")
        assert check.read("t", 1) == "A"
        check.commit()

    @on_loop
    async def test_idle_session_runs_inline(self, db, sched):
        """An idle session runs the invocation before the method
        returns: ``on_done`` has fired and the future is settled."""
        fill(db, "t", {1: "a"})
        session = sched.session()
        seen = []
        session.begin("ssi", on_done=lambda result, error: seen.append(error))
        assert seen == [None]
        future = session.invoke("read", "t", 1)
        assert future.done() and future.result() == "a"
        await session.invoke("commit")

    @on_loop
    async def test_errors_are_delivered_not_raised_in_worker(self, db, sched):
        fill(db, "t", {1: "a"})
        session = sched.session()
        await session.invoke("begin", "ssi")
        with pytest.raises(KeyNotFoundError):
            await session.invoke("read", "t", 404)
        # the session survives a failed op
        assert await session.invoke("read", "t", 1) == "a"
        await session.invoke("abort")

    @on_loop
    async def test_op_without_txn_fails(self, db, sched):
        session = sched.session()
        with pytest.raises(TransactionStateError):
            await session.invoke("read", "t", 1)

    @on_loop
    async def test_close_rejects_future_work(self, db, sched):
        session = sched.session()
        await session.invoke("begin", "ssi")
        await session.invoke("close")
        with pytest.raises(SessionClosedError):
            await session.invoke("begin", "ssi")
        assert sched.open_sessions == 0

    @on_loop
    async def test_read_only_session_surface(self, db, sched):
        fill(db, "t", {1: "a"})
        session = sched.session()
        await session.invoke("begin", "ssi", True)  # read_only
        assert await session.invoke("read", "t", 1) == "a"
        with pytest.raises(TransactionStateError):
            await session.invoke("write", "t", 1, "x")
        await session.invoke("commit")


class TestOneOpenTransaction:
    """A session holds one transaction: a second ``begin`` or a
    ``run_program`` while it is active is refused and leaves it as it
    was, instead of orphaning it with its locks."""

    @on_loop
    async def test_second_begin_is_refused(self, db, sched):
        fill(db, "t", {1: "a"})
        session = sched.session()
        first = await session.invoke("begin", "ssi")
        await session.invoke("write", "t", 1, "x")
        with pytest.raises(TransactionStateError):
            await session.invoke("begin", "ssi")
        assert session.txn.id == first and session.txn.is_active
        await session.invoke("commit")
        # a session whose transaction has ended may begin again
        assert await session.invoke("begin", "ssi") != first
        await session.invoke("close")
        assert db.active_count() == 0
        residue = db.audit()
        assert (residue["granted"], residue["owners"]) == (0, 0), residue

    @on_loop
    async def test_run_program_beside_an_open_transaction_is_refused(
            self, db, sched):
        from repro.sim.ops import Read, Write

        fill(db, "t", {1: "a"})

        def program():
            value = yield Read("t", 1)
            yield Write("t", 2, value)

        session = sched.session()
        first = await session.invoke("begin", "ssi")
        await session.invoke("write", "t", 1, "x")
        with pytest.raises(TransactionStateError):
            await session.invoke("run_program", program(), "ssi")
        assert session.txn.id == first and session.txn.is_active
        await session.invoke("close")
        assert db.active_count() == 0
        residue = db.audit()
        assert residue == dict.fromkeys(residue, 0), residue


class TestSuspension:
    @on_loop
    async def test_blocked_session_holds_up_no_other_session(self, db, sched):
        """A session waiting on a lock holds nothing but its pending
        invocation: another session keeps making progress beside it on
        the same loop, and the waiter resumes once the lock is free."""
        fill(db, "t", {"x": 0, "y": 0})
        blocker = sched.session()
        other = sched.session()
        await blocker.invoke("begin", "s2pl")
        await other.invoke("begin", "s2pl")
        await other.invoke("read_for_update", "t", "x")  # exclusive on x

        blocked = blocker.invoke("read", "t", "x")
        assert not blocked.done()
        assert sched.suspended_sessions == 1
        await other.invoke("write", "t", "y", 7)
        assert await other.invoke("read", "t", "y") == 7
        await other.invoke("commit")  # releases x -> blocker resumes
        assert await blocked == 0
        await blocker.invoke("commit")

    @on_loop
    async def test_session_wait_metrics(self, db, sched):
        fill(db, "t", {"x": 0})
        holder, waiter = sched.session(), sched.session()
        await holder.invoke("begin", "s2pl")
        await holder.invoke("read_for_update", "t", "x")
        await waiter.invoke("begin", "s2pl")
        blocked = waiter.invoke("read", "t", "x")
        snap = db.metrics.snapshot()
        assert snap["gauges"]["sessions_open"] == 2
        assert snap["gauges"]["sessions_suspended"] == 1
        await holder.invoke("commit")
        await blocked
        await waiter.invoke("commit")
        snap = db.metrics.snapshot()
        assert snap["histograms"]["session_wait_time"]["count"] >= 1

    @on_loop
    async def test_interrupt_wakes_suspended_lock_wait(self, db, sched):
        fill(db, "t", {"x": 0})
        holder, waiter = sched.session(), sched.session()
        await holder.invoke("begin", "s2pl")
        await holder.invoke("read_for_update", "t", "x")
        await waiter.invoke("begin", "s2pl")
        blocked = waiter.invoke("read", "t", "x")
        waiter.interrupt()
        with pytest.raises(TransactionAbortedError):
            await blocked
        assert waiter.txn is None
        await holder.invoke("commit")
        # the interrupted waiter left nothing queued in the lock table
        assert db.locks.residue()["waiters"] == 0

    @on_loop
    async def test_commit_on_another_thread_resumes_a_suspended_session(
            self, db, sched):
        """The lock is held by a blocking ``Transaction`` that another OS
        thread commits: the grant fires on that thread, and the session's
        retry runs on its loop."""
        fill(db, "t", {"x": 0})
        holder = db.begin("s2pl")
        holder.write("t", "x", 5)
        waiter = sched.session()
        await waiter.invoke("begin", "s2pl")
        steps = []
        step = waiter._step
        waiter._step = lambda: steps.append(threading.current_thread()) or step()
        blocked = waiter.invoke("read", "t", "x")
        assert not blocked.done()
        on_thread(holder.commit)
        assert await blocked == 5
        assert steps[-1] is threading.current_thread()  # the loop's thread
        await waiter.invoke("commit")
        assert sched.suspended_sessions == 0

    @on_loop
    async def test_interrupt_from_another_thread_aborts_a_suspended_wait(
            self, db, sched):
        fill(db, "t", {"x": 0})
        holder = db.begin("s2pl")
        holder.read_for_update("t", "x")
        waiter = sched.session()
        await waiter.invoke("begin", "s2pl")
        blocked = waiter.invoke("read", "t", "x")
        on_thread(waiter.interrupt)
        with pytest.raises(TransactionAbortedError):
            await blocked
        assert waiter.txn is None
        holder.commit()
        assert db.locks.residue()["waiters"] == 0

    def test_submit_without_a_running_loop_raises_and_queues_nothing(
            self, db, sched):
        fill(db, "t", {1: "a"})
        session = sched.session()
        seen = []
        with pytest.raises(RuntimeError):
            session.begin("ssi", on_done=lambda result, error: seen.append(1))
        with pytest.raises(RuntimeError):
            session.invoke("begin", "ssi")
        assert seen == [] and not session._inbox and not session._busy
        assert session.txn is None and db.active_count() == 0

        async def use():
            await session.invoke("begin", "ssi")
            value = await session.invoke("read", "t", 1)
            await session.invoke("close")
            return value

        assert asyncio.run(use()) == "a"


class TestNoPolling:
    @on_loop
    async def test_session_wait_resolves_without_polling(self, db):
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
            await holder.invoke("begin", "s2pl")
            await holder.invoke("read_for_update", "t", "x")
            await waiter.invoke("begin", "s2pl")
            blocked = waiter.invoke("read", "t", "x")
            await asyncio.sleep(0.02)  # a poll timer would have fired
            await holder.invoke("write", "t", "x", 5)
            await holder.invoke("commit")
            assert await blocked == 5
            await waiter.invoke("commit")
            assert polls == []
            assert waiter._timers == []
        finally:
            scheduler.shutdown()
            db.poll_waiters = real_poll

    @on_loop
    async def test_lock_timeout_cancels_suspended_session(self):
        db = Database(EngineConfig(lock_timeout=0.05))
        threads = threading.active_count()
        scheduler = SessionScheduler(db)
        try:
            assert threading.active_count() == threads  # no thread started
            fill(db, "t", {"x": 0})
            holder, waiter = scheduler.session(), scheduler.session()
            await holder.invoke("begin", "s2pl")
            await holder.invoke("read_for_update", "t", "x")
            await waiter.invoke("begin", "s2pl")
            # a timer on the waiter's loop times the wait out
            with pytest.raises(LockTimeoutError):
                await waiter.invoke("read", "t", "x")
            await holder.invoke("abort")
        finally:
            scheduler.shutdown()

    @on_loop
    async def test_periodic_mode_sweeps_from_the_loop(self):
        """PERIODIC deadlock detection in session mode: the sweep timers
        the two suspended sessions arm on their loop must find and break
        the cycle — no other thread exists to poll for it."""
        db = Database(EngineConfig(deadlock_mode=DeadlockMode.PERIODIC))
        threads = threading.active_count()
        scheduler = SessionScheduler(db)
        try:
            assert threading.active_count() == threads  # no thread started
            fill(db, "t", {"x": 0, "y": 0})
            s1, s2 = scheduler.session(), scheduler.session()
            await s1.invoke("begin", "s2pl")
            await s2.invoke("begin", "s2pl")
            await s1.invoke("read_for_update", "t", "x")
            await s2.invoke("read_for_update", "t", "y")
            outcomes = await asyncio.gather(
                s1.invoke("read_for_update", "t", "y"),
                s2.invoke("read_for_update", "t", "x"),
                return_exceptions=True)
            # exactly one side is the deadlock victim
            assert sum(isinstance(o, TransactionAbortedError)
                       for o in outcomes) == 1
            for session in (s1, s2):
                if session.txn is not None:
                    await session.invoke("abort")
        finally:
            scheduler.shutdown()


class TestDeferrableSessions:
    @on_loop
    async def test_deferrable_begin_suspends_until_safe(self, db, sched):
        """A deferrable session begin returns at once; its first read
        suspends until the SafeSnapshotMonitor fires the safe verdict,
        while other sessions run beside it, and then holds no SIREAD."""
        fill(db, "t", {1: "a"})
        writer = db.begin("ssi")
        writer.read("t", 1)

        ro = sched.session()
        await ro.invoke("begin", "ssi", False, True)  # deferrable
        blocked = ro.invoke("read", "t", 1)
        assert sched.suspended_sessions == 1
        assert not blocked.done()
        other = sched.session()
        await other.invoke("begin", "si")
        assert await other.invoke("read", "t", 1) == "a"
        await other.invoke("commit")
        # harmless commit -> watch set drains -> safe verdict
        writer.write("t", 1, "w")
        writer.commit()
        assert await blocked == "a"  # the snapshot predates the commit
        assert ro.txn.snapshot_safe is True
        assert not db.locks.holds_any_siread(ro.txn)
        await ro.invoke("commit")

    @on_loop
    async def test_unsafe_verdict_is_permanent_and_retakes_snapshot(
            self, db, sched):
        """An unsafe verdict can never flip back: the session must
        discard that snapshot, take a fresh one, and only then read."""
        fill(db, "t", {"x": 0, "y": 0, "z": 0})
        t_out = db.begin("ssi")
        pivot = db.begin("ssi")
        pivot.read("t", "x")
        t_out.write("t", "x", 1)
        t_out.commit()  # pivot -rw-> t_out, t_out committed early

        ro = sched.session()
        await ro.invoke("begin", "ssi", False, True)  # deferrable
        blocked = ro.invoke("read", "t", "z")
        assert sched.suspended_sessions == 1
        assert not blocked.done()
        pivot.write("t", "z", 1)
        pivot.commit()  # out-edge to old committed t_out: UNSAFE verdict
        # the unsafe verdict resumes the session, which retakes a
        # snapshot; with no rw transaction left it is immediately safe
        # — and the fresh snapshot postdates both commits
        assert await blocked == 1
        assert ro.txn.snapshot_safe is True
        stats = db.metrics.snapshot()["counters"]["safe_snapshots"]
        assert stats["unsafe"] >= 1
        await ro.invoke("commit")

    @on_loop
    async def test_interrupt_during_deferrable_wait(self, db, sched):
        fill(db, "t", {1: "a"})
        writer = db.begin("ssi")
        writer.read("t", 1)
        ro = sched.session()
        await ro.invoke("begin", "ssi", False, True)  # deferrable
        blocked = ro.invoke("read", "t", 1)
        assert sched.suspended_sessions == 1
        ro.interrupt()
        with pytest.raises(TransactionAbortedError):
            await blocked
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

    def test_hot_key_sessions_on_one_loop(self):
        """16 sessions over 4 SmallBank customers under s2pl wait on one
        another constantly; every wait's resume is a scheduled step on
        the one loop.  Every transaction must finish — a lost wake would
        leave the loop idle forever, hence the timeout — serializably
        and clean."""
        db_box = {}
        box = {}

        def stress():
            box["result"] = run_session_stress(
                make_smallbank(customers=4),
                level="s2pl",
                sessions=16,
                txns_per_session=40,
                check_serializability=True,
                on_database=lambda db: db_box.setdefault("db", db),
            )

        runner = threading.Thread(target=stress, daemon=True)
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive(), "a suspended session never woke"
        result = box["result"]
        assert result.commits + result.aborts == result.txns
        assert result.serializable is True
        assert result.lock_table_clean, result.describe()
        waits = db_box["db"].metrics.snapshot()["histograms"]["session_wait_time"]
        assert waits["count"] > 0  # the sessions really waited

    def test_sessions_and_threads_share_hot_keys(self):
        """Sessions on one loop and blocking clients on OS threads
        contend for 4 SmallBank customers under s2pl, with the
        interpreter switching threads every 10 µs: the threads' commits
        and aborts wake sessions from outside the loop.  Everything must
        finish — a lost wake leaves the loop idle forever — serializably
        and clean."""
        db = Database(EngineConfig(record_history=True))
        workload = make_smallbank(customers=4)
        workload.setup(db)
        scheduler = SessionScheduler(db)
        sessions, threads, txns = 8, 4, 40
        outcomes, errors = [], []

        async def client(index):
            rng = random.Random(index)
            session = scheduler.session()
            for _ in range(txns):
                _name, program = workload.next_transaction(rng)
                try:
                    await session.invoke("run_program", program, "s2pl")
                    outcomes.append(None)
                except ABORTS as error:
                    outcomes.append(abort_reason(error))
            await session.invoke("close")

        async def clients():
            await asyncio.gather(*(client(index) for index in range(sessions)))

        def run(work):
            try:
                work()
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        # Daemons: after a lost wake their blocked threads must not keep
        # the test process alive.
        runners = [
            threading.Thread(target=run, daemon=True,
                             args=(lambda: asyncio.run(clients()),)),
            threading.Thread(target=run, daemon=True, args=(
                lambda: drive_threads(
                    db, "s2pl", threads, txns, 7, workload.next_transaction,
                    lambda _name, reason: outcomes.append(reason)),)),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for runner in runners:
                runner.start()
            deadline = time.monotonic() + 120
            for runner in runners:
                runner.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(runner.is_alive() for runner in runners), \
            "a suspended session never woke"
        assert not errors, errors
        assert len(outcomes) == (sessions + threads) * txns
        assert check_serializable(db.history).serializable
        residue = db.audit()
        assert not any(residue.values()), residue

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
