"""Sessions: transactions decoupled from OS threads.

The blocking client API (:class:`repro.engine.transaction.Transaction`)
parks one thread per in-flight transaction.  A :class:`Session` instead
*suspends* whenever the engine reports a wait
(:class:`~repro.errors.CompletionWaitRequired`: a lock request or a
deferrable safe-snapshot verdict) by subscribing its own resumption to
the wait's completion, and retries the invocation once it fires — however the wait
ended: a wait cancelled by a doom (deadlock victim, lock-wait timeout,
:meth:`Session.interrupt`) makes the retry abort with the doom's error
in the engine.  The asyncio wire server
(:mod:`repro.server`) keeps one session per TCP connection on its event
loop: 1024 connections cost 1024 sessions, not 1024 threads.  A
:class:`SessionScheduler` opens sessions and keeps their books; it runs
nothing itself.

Execution model
---------------
Every public session method submits an *invocation* (an engine thunk
plus an ``on_done(result, error)`` callback) and must be called on a
thread that runs an asyncio event loop; from any other thread it raises
``RuntimeError`` before it queues anything.  :meth:`Session.invoke`
returns an invocation's outcome as an asyncio future.  A session runs
its invocations in FIFO order; engine thunks are idempotent-on-retry
exactly as in the blocking path, so a thunk interrupted by a wait is
simply re-run once it fires.  Delivering an outcome forgets the
session's transaction once it has finished.

A session is bound to the loop of whoever submitted work to it while it
was idle, and runs only there.  The invocation runs inline before the
method returns — engine calls never block, they raise a wait exception
instead, so the loop is held only while the engine works.  Work
submitted while the session is busy joins its inbox.  A suspended
session's retry is scheduled back onto its loop with
``loop.call_soon_threadsafe``, and a program
(:meth:`Session.run_program`) hands the loop back between its steps,
as a wire client's transaction does between its frames.  Every change
to a session's state therefore happens on the loop thread, and a
session takes no lock.

Resume callbacks may fire on any thread — a resolver's **while it holds
the lock manager latch**, or a foreign thread's doom — so they only
schedule the session's next step: no engine re-entry (no latch may be
held across a suspension point, and no suspension handler may take a
latch).

A wait's deadline duties — cancelling a lock request at its
``lock_timeout`` deadline and, under PERIODIC deadlock detection,
``Database.poll_waiters`` every ``wait_poll_interval`` — are loop
timers that the resumed step cancels.  With neither configured nothing
on the wait path polls.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from contextlib import suppress
from functools import partial
from typing import Any, Callable, Optional

from repro.engine.database import Database
from repro.engine.isolation import IsolationLevel
from repro.engine.latches import assert_no_latches_held
from repro.errors import (
    CompletionWaitRequired,
    ReproError,
    TransactionAbortedError,
    TransactionStateError,
)
from repro.sim.ops import ProgramRun

__all__ = ["Session", "SessionClosedError", "SessionScheduler"]

OnDone = Callable[[Any, Optional[BaseException]], None]


class SessionClosedError(ReproError):
    """An invocation was submitted to (or pending on) a closed session."""


#: an invocation: the engine thunk and the callback its outcome goes to
_Invocation = tuple[Callable[[], Any], OnDone]

#: what a thunk returns to hand the loop back before it runs again
_YIELD = object()


def _txn_op(name: str):
    """The session method that runs ``Database.<name>(txn, *args)`` on
    the session's open transaction."""
    def method(self, *args: Any, on_done: OnDone) -> None:
        self._submit(
            lambda: getattr(self._db, name)(self._need_txn(), *args),
            on_done, name)

    method.__name__, method.__qualname__ = name, f"Session.{name}"
    return method


class Session:
    """One client's transaction context, scheduled without a dedicated
    thread.  Create through :meth:`SessionScheduler.session`.

    All transaction-surface methods (:meth:`begin`, :meth:`read`,
    :meth:`get`, :meth:`read_for_update`, :meth:`write`, :meth:`insert`,
    :meth:`delete`, :meth:`scan`, :meth:`index_scan`,
    :meth:`index_lookup`, :meth:`commit`, :meth:`abort`,
    :meth:`run_program`, :meth:`close`) are asynchronous: they submit
    work and deliver the outcome through ``on_done(result, error)``.
    :meth:`invoke` returns that outcome as an asyncio future instead.
    """

    def __init__(self, scheduler: "SessionScheduler") -> None:
        self._scheduler = scheduler
        self._db = scheduler.db
        #: the transaction this session currently owns (None between txns)
        self.txn = None
        #: False once the inbox has drained and no invocation is current
        self._busy = False
        self._inbox: deque[_Invocation] = deque()
        self._current: _Invocation | None = None
        self._closed = False
        #: the event loop the session runs on, fixed at each wake from idle
        self._loop: asyncio.AbstractEventLoop | None = None
        #: a wait's deadline-duty timers (poll timer last)
        self._timers: list = []

    # ------------------------------------------------------ public API

    def begin(
        self,
        isolation: IsolationLevel | str = IsolationLevel.SERIALIZABLE_SSI,
        read_only: bool = False,
        deferrable: bool = False,
        global_id: int | None = None,
        *,
        on_done: OnDone,
    ) -> None:
        """Begin a transaction; delivers its id.  A deferrable
        transaction's first read or scan suspends the session (no thread
        is held on a loop) until the safe-snapshot monitor fires a safe
        verdict.  ``global_id`` tags the transaction with a
        coordinator-assigned id (sharding)."""
        self._submit(
            lambda: self._begin(isolation, read_only=read_only,
                                deferrable=deferrable, global_id=global_id).id,
            on_done, "begin")

    # engine operations on the open transaction, arguments as in Database
    read = _txn_op("read")
    get = _txn_op("get")
    read_for_update = _txn_op("read_for_update")
    write = _txn_op("write")
    insert = _txn_op("insert")
    delete = _txn_op("delete")
    scan = _txn_op("scan")
    index_scan = _txn_op("index_scan")
    index_lookup = _txn_op("index_lookup")
    commit = _txn_op("commit")

    def abort(self, *, on_done: OnDone) -> None:
        self._submit(self._drop_txn, on_done, "abort")

    def prepare(self, *, on_done: OnDone) -> None:
        """Two-phase commit phase one: certify locally, keep the
        transaction open and prepared, deliver the shard's conflict
        summary.  A failed certification aborts and raises."""
        self._submit(lambda: self._db.prepare_for_commit(self._need_txn()),
                     on_done, "prepare")

    def commit_prepared(
        self, import_in: bool = False, import_out: bool = False,
        *, on_done: OnDone,
    ) -> None:
        """Two-phase commit phase two: commit the prepared transaction
        unconditionally, folding in the coordinator's merged flags."""
        def fn():
            txn = self._need_txn()
            self._db.commit_prepared(
                txn, import_in=import_in, import_out=import_out,
            )
            self._db.finalize_commit(txn)
        self._submit(fn, on_done, "commit_prepared")

    def run_program(
        self,
        program,
        isolation: IsolationLevel | str = IsolationLevel.SERIALIZABLE_SSI,
        *,
        on_done: OnDone,
    ) -> None:
        """Run a transaction-program generator (see :mod:`repro.sim.ops`)
        to completion in one transaction, committing at the end —
        :func:`repro.sim.direct.run_program`, but suspending instead of
        blocking through waits, and handing the loop back between steps:
        each run of the thunk steps the same
        :class:`~repro.sim.ops.ProgramRun` on from where it stopped.
        Delivers the program's return value."""
        run: ProgramRun | None = None

        def fn():
            nonlocal run
            if run is None:
                run = ProgramRun(self._db, self._begin(isolation), program,
                                 self._db.commit)
            return _YIELD if run.step() else run.value

        self._submit(fn, on_done, "program")

    def close(self, *, on_done: OnDone | None = None) -> None:
        """Abort any open transaction and refuse further invocations.
        Pending queued invocations fail with :class:`SessionClosedError`."""
        def fn():
            self._drop_txn()
            self._closed = True
            pending = list(self._inbox)
            self._inbox.clear()
            for _fn, pending_done in pending:
                self._deliver(pending_done, None, SessionClosedError("session closed"))
            self._scheduler._forget(self)
        self._submit(fn, on_done or (lambda result, error: None), "close",
                     allow_closed=True)

    def interrupt(self, error: TransactionAbortedError | None = None) -> None:
        """Doom the session's transaction and wake it if suspended.

        Callable from any thread (the server uses it when a client
        disconnects mid-wait).  The doom cancels a suspended lock or
        deferrable wait (:meth:`Database.doom`), and the retry aborts
        with the doom's error."""
        txn = self.txn
        if txn is not None and txn.is_active:
            self._db.doom(
                txn,
                error or TransactionAbortedError(
                    "session interrupted", txn_id=txn.id),
            )

    def invoke(self, method: str, /, *args: Any) -> asyncio.Future:
        """Submit ``method(*args)`` on the running event loop and return
        the future of its outcome — already settled when the session was
        idle and the invocation did not wait."""
        future = asyncio.get_running_loop().create_future()
        getattr(self, method)(*args, on_done=partial(_settle, future))
        return future

    # ------------------------------------------------------ internals

    def _begin(self, isolation, **options):
        """Begin the session's transaction.  Refused while the one it
        holds is still active: that one would be orphaned, its locks
        held and its snapshot pinning cleanup."""
        txn = self.txn
        if txn is not None and txn.is_active:
            raise TransactionStateError(
                f"session already has active transaction {txn.id}")
        self.txn = self._db.begin(isolation, **options)
        return self.txn

    def _need_txn(self):
        txn = self.txn
        if txn is None:
            raise TransactionStateError("session has no open transaction")
        return txn

    def _drop_txn(self) -> None:
        txn, self.txn = self.txn, None
        if txn is not None:
            self._db.abort(txn)  # a no-op once the transaction has ended

    def _submit(self, fn: Callable[[], Any], on_done: OnDone, label: str,
                allow_closed: bool = False) -> None:
        """Queue ``fn`` (``label`` names the submitting method) and, if
        the session was idle, run it inline on this thread's loop."""
        loop = asyncio.get_running_loop()  # off a loop: raise, queue nothing
        if self._closed and not allow_closed:
            self._deliver(on_done, None, SessionClosedError("session closed"))
            return
        self._inbox.append((fn, on_done))
        if not self._busy:
            self._busy, self._loop = True, loop
            self._step()

    def _step(self) -> None:
        """Run queued invocations until the inbox drains, one suspends or
        a program hands the loop back.  Runs only on the session's loop,
        once per wake."""
        assert_no_latches_held("session step")
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        while True:
            invocation = self._current
            if invocation is None:
                if not self._inbox:
                    self._busy = False
                    return
                invocation = self._inbox.popleft()
            else:
                self._current = None  # a wait fired or a step ended: go on
            fn, on_done = invocation
            error = None
            try:
                result = fn()
            except CompletionWaitRequired as wait:
                self._current = invocation
                self._suspend(wait)
                return
            except BaseException as raised:
                result, error = None, raised
            if result is _YIELD:  # let the loop's other sessions run
                self._current = invocation
                self._loop.call_soon(self._step)
                return
            # An outcome ends the session's hold on a transaction that has
            # finished — committed, or aborted by its own or a doomed
            # retry's error.
            txn = self.txn
            if txn is not None and not txn.is_active:
                self.txn = None
            self._deliver(on_done, result, error)

    def _suspend(self, wait: CompletionWaitRequired) -> None:
        """Park on ``wait.completion`` until it fires; its request, if it
        is a lock wait, is what a ``lock_timeout`` deadline cancels."""
        self._scheduler._note_suspended(self)
        self._arm_timers(wait.request)
        # May fire _resume synchronously (an already-fired completion) on
        # this thread, or later on any thread — a resolver's may hold the
        # lock manager latch; either way _resume only schedules a step.
        wait.completion.on_fire(self._resume)

    def _arm_timers(self, request) -> None:
        """A wait's deadline duties, as timers on the session's loop:
        cancel a lock ``request`` once ``lock_timeout`` has passed, and
        under PERIODIC deadlock detection sweep every
        ``wait_poll_interval``."""
        loop, db = self._loop, self._db
        timeout = db.config.lock_timeout
        if request is not None and timeout is not None:
            self._timers.append(loop.call_later(
                timeout, db.cancel_lock_request, request))
        if db.needs_wait_polling:
            def poll():
                db.poll_waiters()
                self._timers[-1] = loop.call_later(db.wait_poll_interval, poll)

            self._timers.append(loop.call_later(db.wait_poll_interval, poll))

    def _resume(self, _source=None) -> None:
        # Any thread.  A suspension subscribes to exactly one completion,
        # which fires once, so this runs once per suspension.
        self._scheduler._note_resumed(self)
        self._scheduler._enqueue(self)

    def _deliver(self, on_done: OnDone, result: Any,
                 error: BaseException | None) -> None:
        try:
            on_done(result, error)
        except Exception:  # noqa: BLE001 - a client callback must not kill the loop
            pass


def _settle(future: asyncio.Future, result: Any,
            error: BaseException | None) -> None:
    if future.cancelled():
        return
    if error is not None:
        future.set_exception(error)
    else:
        future.set_result(result)


class SessionScheduler:
    """Opens the sessions of one database and keeps their books; each
    session runs on its own event loop (module docstring).

    Registers observability with the database's metrics registry:
    ``sessions_open`` / ``sessions_suspended`` gauges and the
    ``session_wait_time`` histogram (wall-clock suspend → resume,
    feeding the same latency story as ``lock_wait_time``).
    """

    def __init__(self, db: Database) -> None:
        self.db = db
        self._closed = False
        self._sessions: set[Session] = set()
        #: suspended session -> when it suspended (set on the loop, popped
        #: by a resume on any thread: single dict operations)
        self._suspended: dict[Session, float] = {}
        self._wait_histogram = db.metrics.histogram("session_wait_time")
        db.metrics.register_gauge("sessions_open", lambda: len(self._sessions))
        db.metrics.register_gauge(
            "sessions_suspended", lambda: len(self._suspended))

    # ------------------------------------------------------ public API

    def session(self) -> Session:
        """Open a new session on this scheduler."""
        if self._closed:
            raise SessionClosedError("scheduler is shut down")
        session = Session(self)
        self._sessions.add(session)
        return session

    def shutdown(self) -> None:
        """Stop opening sessions.  Open sessions keep their engine state
        and their loops; callers that need a clean lock table close
        their sessions first."""
        self._closed = True

    @property
    def open_sessions(self) -> int:
        return len(self._sessions)

    @property
    def suspended_sessions(self) -> int:
        return len(self._suspended)

    # ------------------------------------------------------ internals

    def _enqueue(self, session: Session) -> None:
        # Schedule the session's next step on its loop.  Resume callbacks
        # may run under the lock manager latch: this only hands off.
        with suppress(RuntimeError):  # a closed loop drives nothing again
            session._loop.call_soon_threadsafe(session._step)

    def _forget(self, session: Session) -> None:
        self._sessions.discard(session)
        self._suspended.pop(session, None)

    def _note_suspended(self, session: Session) -> None:
        self._suspended[session] = time.monotonic()

    def _note_resumed(self, session: Session) -> None:
        started = self._suspended.pop(session, None)
        if started is not None:
            self._wait_histogram.observe(time.monotonic() - started)
