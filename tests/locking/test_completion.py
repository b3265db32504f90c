"""Completions: a lock request is one, so its subscribers get the
completion's callback hardening — a raising subscriber cannot unwind
the commit whose lock release fires it; and the cancel-vs-grant race
(exactly one terminal state, callbacks fire once)."""

from __future__ import annotations

import threading

import pytest

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.waits import Completion
from repro.errors import CompletionWaitRequired, LockTimeoutError
from repro.locking.manager import (
    AcquireStatus,
    LockManager,
    RequestState,
    record_resource,
)
from repro.locking.modes import LockMode
from repro.obs.trace import EventType
from repro.wal.log import WriteAheadLog


class Owner:
    def __init__(self, id: int, begin_ts: int = 0):
        self.id = id
        self.begin_ts = begin_ts


R = record_resource("t", "k")


def waiting_request(lm, holder, waiter, mode=LockMode.SHARED):
    lm.acquire(holder, R, LockMode.EXCLUSIVE)
    result = lm.acquire_nowait(waiter, R, mode)
    assert result.status is AcquireStatus.WAIT
    return result.request


class TestCompletion:
    def test_set_is_idempotent_first_wins(self):
        completion = Completion()
        fired = []
        completion.on_fire(lambda c: fired.append(1))
        assert completion.set() is True
        assert completion.set() is False
        assert fired == [1]
        assert completion.fired

    def test_late_subscriber_fires_immediately(self):
        completion = Completion()
        completion.set()
        fired = []
        completion.on_fire(lambda c: fired.append(1))
        assert fired == [1]

    def test_wait_unblocks_on_set(self):
        completion = Completion()
        seen = threading.Event()
        thread = threading.Thread(
            target=lambda: (completion.wait(timeout=10), seen.set()))
        thread.start()
        completion.set()
        assert seen.wait(timeout=10)
        thread.join()


class TestCallbackHardening:
    def test_failing_callback_does_not_skip_the_rest(self):
        """One raising callback must not half-resolve the request: every
        other subscriber still fires, the request reaches its terminal
        state, and the failure is accounted, not propagated."""
        lm = LockManager()
        holder, waiter = Owner(1), Owner(2)
        request = waiting_request(lm, holder, waiter)
        calls = []
        request.on_fire(lambda r: calls.append("first"))
        request.on_fire(lambda r: (_ for _ in ()).throw(RuntimeError("boom")))
        request.on_fire(lambda r: calls.append("last"))
        lm.release_all(holder)  # grants the waiter, runs callbacks
        assert request.state is RequestState.GRANTED
        assert calls == ["first", "last"]
        assert lm.stats["lock_callback_errors"] == 1

    def test_failing_immediate_callback_on_resolved_request(self):
        lm = LockManager()
        holder, waiter = Owner(1), Owner(2)
        request = waiting_request(lm, holder, waiter)
        lm.release_all(holder)
        assert request.resolved
        # subscribing after resolution runs immediately — and a raising
        # late subscriber is accounted the same way
        request.on_fire(lambda r: (_ for _ in ()).throw(ValueError("late")))
        assert lm.stats["lock_callback_errors"] == 1

    def test_callback_error_emits_trace_event(self):
        db = Database(EngineConfig())
        db.enable_tracing()
        db.create_table("t")
        db.load("t", [("k", 0)])
        holder = db.begin("s2pl")
        holder.read_for_update("t", "k")
        waiter = db.begin("s2pl")
        result = db.locks.acquire_nowait(
            waiter, record_resource("t", "k"), LockMode.SHARED)
        assert result.status is AcquireStatus.WAIT
        result.request.on_fire(
            lambda r: (_ for _ in ()).throw(RuntimeError("kaput")))
        holder.commit()
        events = [e for e in db.trace.events()
                  if e.type is EventType.CALLBACK_ERROR]
        assert len(events) == 1
        assert events[0].data["error"] == "RuntimeError"
        assert db.metrics.snapshot()["counters"]["locks"][
            "lock_callback_errors"] == 1
        db.abort(waiter)


    def test_failing_subscriber_cannot_unwind_a_durable_commit(self):
        """The commit whose lock release grants the waiters fires their
        requests' subscribers: a raising one is contained, every other
        subscriber runs, and the commit still finishes — flushed once,
        locks released, the errors counted."""
        db = Database(EngineConfig(), wal=WriteAheadLog())
        db.create_table("t")
        db.load("t", [("k", 0)])
        holder = db.begin("s2pl")
        holder.write("t", "k", 1)
        fired = []
        waiters = [db.begin("s2pl") for _ in range(2)]
        for waiter in waiters:
            with pytest.raises(CompletionWaitRequired) as wait:
                db.read(waiter, "t", "k")
            wait.value.completion.on_fire(
                lambda c: (_ for _ in ()).throw(RuntimeError("kaput")))
            wait.value.completion.on_fire(fired.append)
        holder.commit()
        assert holder.is_committed
        assert len(fired) == 2
        for waiter in waiters:
            assert db.read(waiter, "t", "k") == 1  # granted: the retry reads
            waiter.commit()
        counters = db.metrics.snapshot()["counters"]
        assert counters["locks"]["lock_callback_errors"] == 2
        assert counters["wal"] == {"appends": 2, "flushes": 1}
        assert db.locks.table_size() == 0


class TestCancelVsResolveRace:
    def test_double_resolve_first_wins(self):
        lm = LockManager()
        holder, waiter = Owner(1), Owner(2)
        request = waiting_request(lm, holder, waiter)
        calls = []
        request.on_fire(lambda r: calls.append(r.state))
        assert request._resolve(RequestState.GRANTED) is True
        assert request._resolve(
            RequestState.DENIED, LockTimeoutError("late")) is False
        assert request.state is RequestState.GRANTED
        assert request.error is None
        assert calls == [RequestState.GRANTED]

    def test_cancel_after_grant_is_a_noop(self):
        lm = LockManager()
        holder, waiter = Owner(1), Owner(2)
        request = waiting_request(lm, holder, waiter)
        lm.release_all(holder)
        assert request.state is RequestState.GRANTED
        assert lm.cancel_request(request, LockTimeoutError("late")) is False
        assert request.state is RequestState.GRANTED
        assert lm.holds(waiter, R, LockMode.SHARED)

    @pytest.mark.parametrize("round_", range(20))
    def test_concurrent_cancel_vs_grant_exactly_one_wins(self, round_):
        """Hammer cancel_request against the grant path: whatever
        interleaving the OS picks, the request ends in exactly one
        terminal state, callbacks fire exactly once, and a DENIED
        verdict never leaves a granted lock behind."""
        lm = LockManager()
        holder, waiter = Owner(1), Owner(2)
        request = waiting_request(lm, holder, waiter)
        fired = []
        request.on_fire(lambda r: fired.append(r.state))
        barrier = threading.Barrier(2)
        cancel_won = []

        def canceller():
            barrier.wait()
            if lm.cancel_request(request, LockTimeoutError("timeout")):
                cancel_won.append(True)

        def granter():
            barrier.wait()
            lm.release_all(holder)

        threads = [threading.Thread(target=canceller),
                   threading.Thread(target=granter)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(fired) == 1, "callbacks must fire exactly once"
        assert request.state in (RequestState.GRANTED, RequestState.DENIED)
        assert fired == [request.state]
        if request.state is RequestState.DENIED:
            assert cancel_won == [True]
            assert isinstance(request.error, LockTimeoutError)
            # a denied waiter must not hold the lock...
            assert not lm.holds(waiter, R, LockMode.SHARED)
        else:
            assert cancel_won == []
            assert lm.holds(waiter, R, LockMode.SHARED)
        # ...and either way the queue is drained
        lm.release_all(waiter)
        assert not any(lm.residue().values())
