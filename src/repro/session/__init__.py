"""Sessions: transactions decoupled from OS threads.

The blocking client API (:class:`repro.engine.transaction.Transaction`)
parks one thread per in-flight transaction.  A :class:`Session` instead
*suspends* whenever the engine reports a pending wait — a lock request
(:class:`~repro.errors.LockWaitRequired`), or a deferrable safe-snapshot
wait or a commit ticket queued behind a batch leader
(:class:`~repro.errors.CompletionWaitRequired`) — by subscribing
its own resumption to the wait's completion object and returning the
worker to the pool.  A :class:`SessionScheduler` drives N sessions over
M worker threads with M ≪ N; the asyncio wire-protocol server
(:mod:`repro.server`) keeps one session per TCP connection, runs its
operations on the event loop and leaves only resumed waits to such a
pool.

Execution model
---------------
Every public session method submits an *invocation* (an engine thunk
plus an ``on_done(result, error)`` callback) and returns without
waiting for its outcome.  A session runs its invocations in FIFO order;
engine thunks are idempotent-on-retry exactly as in the blocking path,
so a thunk interrupted by ``LockWaitRequired`` is simply re-run after
the grant.

Where an invocation runs depends on the submitting thread.  Submitted
from a thread that runs an asyncio event loop (the wire server's
dispatch) to an idle session, it runs *inline*, on that thread, before
the method returns: engine calls never block — they raise a wait
exception instead — so the loop is held no longer than the engine
works, and under the GIL a worker hand-off would add two thread
switches and no parallelism.  Submitted from any other thread, or to a
session that is already queued, running or suspended, it is queued for
a worker.  Only the *first* run of an invocation can be inline: one
that suspends is resumed on a worker.

Resume callbacks may fire on a resolver's thread **while it holds the lock
manager latch**, so they do nothing but mark the session runnable and
enqueue it — no engine re-entry, mirroring the latch-vs-await rule (no
latch may be held across a suspension point, and no suspension handler
may take a latch).

Timeouts and periodic deadlock sweeps cannot ride on a blocked client
thread here, so the scheduler owns them: a tick thread exists *only*
when ``lock_timeout`` is configured or the PERIODIC deadlock mode needs
sweeping, and that thread is the sole consumer of
``Database.wait_poll_interval`` — the lock-wait path itself never polls.
"""

from __future__ import annotations

import threading
import time
from asyncio import _get_running_loop
from collections import deque
from functools import partial
from typing import Any, Callable, Hashable, Optional

from repro.engine.database import Database
from repro.engine.isolation import IsolationLevel
from repro.engine.latches import assert_no_latches_held
from repro.errors import (
    CompletionWaitRequired,
    LockWaitRequired,
    ReproError,
    TransactionAbortedError,
    TransactionStateError,
)
from repro.locking.manager import LockRequest, RequestState
from repro.sim.ops import ProgramRun

__all__ = [
    "Session",
    "SessionClosedError",
    "SessionScheduler",
]

OnDone = Callable[[Any, Optional[BaseException]], None]


class SessionClosedError(ReproError):
    """An invocation was submitted to (or pending on) a closed session."""


class _Invocation:
    __slots__ = ("fn", "on_done", "label")

    def __init__(self, fn: Callable[[], Any], on_done: OnDone, label: str):
        self.fn = fn
        self.on_done = on_done
        self.label = label


# Session lifecycle states.  IDLE: no queued work, not enqueued.
# READY: enqueued on (or claimed by) the scheduler run queue, or about
# to run inline.  RUNNING: a worker, or the submitting event loop, is
# inside _step.  SUSPENDED: parked on a wait
# completion; the resume callback moves it back to READY.
_IDLE = "idle"
_READY = "ready"
_RUNNING = "running"
_SUSPENDED = "suspended"


class Session:
    """One client's transaction context, scheduled without a dedicated
    thread.  Create through :meth:`SessionScheduler.session`.

    All transaction-surface methods (:meth:`begin`, :meth:`read`,
    :meth:`get`, :meth:`read_for_update`, :meth:`write`, :meth:`insert`,
    :meth:`delete`, :meth:`scan`, :meth:`scan_prefix`, :meth:`index_scan`,
    :meth:`index_lookup`, :meth:`commit`, :meth:`abort`,
    :meth:`run_program`, :meth:`close`) are asynchronous: they submit
    work and deliver the outcome through ``on_done(result, error)``.
    :meth:`call` is a small blocking facade for tests and tools.
    """

    def __init__(self, scheduler: "SessionScheduler") -> None:
        self._scheduler = scheduler
        self._db = scheduler.db
        #: the transaction this session currently owns (None between txns)
        self.txn = None
        self._state_lock = threading.Lock()
        self._state = _IDLE
        self._inbox: deque[_Invocation] = deque()
        self._current: _Invocation | None = None
        self._closed = False
        #: wait bookkeeping, written only by the owning worker while
        #: RUNNING and read by the scheduler's tick thread
        self._pending_request: LockRequest | None = None
        self._wait_started: float | None = None
        self._wait_deadline: float | None = None

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
        """Begin a transaction; delivers its id.  A deferrable begin
        suspends the session (no worker thread is held) until the
        safe-snapshot monitor fires a safe verdict.  ``global_id`` tags
        the transaction with a coordinator-assigned id (sharding)."""
        state: dict = {"txn": None, "defer": False}

        def fn():
            txn = state["txn"]
            if txn is None:
                try:
                    state["txn"] = self._db.begin(
                        isolation, read_only=read_only,
                        deferrable=deferrable, wait=False,
                        global_id=global_id,
                    )
                except CompletionWaitRequired as wait:
                    # The transaction exists and is being watched; expose
                    # it immediately so interrupt()/close() can doom it.
                    state["txn"] = wait.txn
                    state["defer"] = True
                    self.txn = wait.txn
                    raise
            elif state["defer"]:
                if not txn.is_active or txn.doom_error is not None:
                    error = txn.doom_error or TransactionStateError(
                        f"transaction {txn.id} is {txn.status.value}"
                    )
                    if txn.is_active:
                        self._db.abort(txn)
                    self.txn = None
                    raise error
                self._db.resume_deferrable(txn)  # may raise again
                state["defer"] = False
            self.txn = state["txn"]
            return state["txn"].id

        self._submit(fn, on_done, "begin")

    def read(self, table: str, key: Hashable, *, on_done: OnDone) -> None:
        self._submit(lambda: self._db.read(self._need_txn(), table, key),
                     on_done, "read")

    def get(self, table: str, key: Hashable, default: Any = None,
            *, on_done: OnDone) -> None:
        self._submit(lambda: self._db.get(self._need_txn(), table, key, default),
                     on_done, "get")

    def read_for_update(self, table: str, key: Hashable, *, on_done: OnDone) -> None:
        self._submit(
            lambda: self._db.read_for_update(self._need_txn(), table, key),
            on_done, "read_for_update")

    def write(self, table: str, key: Hashable, value: Any,
              *, on_done: OnDone) -> None:
        self._submit(lambda: self._db.write(self._need_txn(), table, key, value),
                     on_done, "write")

    def insert(self, table: str, key: Hashable, value: Any,
               *, on_done: OnDone) -> None:
        self._submit(lambda: self._db.insert(self._need_txn(), table, key, value),
                     on_done, "insert")

    def delete(self, table: str, key: Hashable, *, on_done: OnDone) -> None:
        self._submit(lambda: self._db.delete(self._need_txn(), table, key),
                     on_done, "delete")

    def scan(self, table: str, lo: Hashable | None = None,
             hi: Hashable | None = None, *, on_done: OnDone) -> None:
        self._submit(lambda: self._db.scan(self._need_txn(), table, lo, hi),
                     on_done, "scan")

    def scan_prefix(self, table: str, lo: Hashable | None = None,
                    hi: Hashable | None = None, limit: int | None = None,
                    *, on_done: OnDone) -> None:
        self._submit(
            lambda: self._db.scan_prefix(self._need_txn(), table, lo, hi, limit),
            on_done, "scan_prefix")

    def index_scan(self, index: str, lo: Hashable | None = None,
                   hi: Hashable | None = None, *, on_done: OnDone) -> None:
        self._submit(lambda: self._db.index_scan(self._need_txn(), index, lo, hi),
                     on_done, "index_scan")

    def index_lookup(self, index: str, key: Hashable, *, on_done: OnDone) -> None:
        self._submit(lambda: self._db.index_lookup(self._need_txn(), index, key),
                     on_done, "index_lookup")

    def commit(self, *, on_done: OnDone) -> None:
        """Commit the open transaction.  A commit that queues behind
        an active batch leader suspends on its ticket's completion
        (:class:`~repro.errors.CompletionWaitRequired`), releasing the
        worker while it rides the group; the retry consumes the
        resolved ticket.  ``self.txn`` is only cleared on a terminal
        outcome — the batch leader may flip the transaction COMMITTED
        while this session is still suspended, so the wait path must
        not conclude anything from the status alone."""
        def fn():
            txn = self._need_txn()
            try:
                self._db.commit(txn, wait=False)
            except (LockWaitRequired, CompletionWaitRequired):
                raise  # suspend; the retry re-drives (or consumes) it
            except BaseException:
                if not txn.is_active:
                    self.txn = None
                raise
            self.txn = None
        self._submit(fn, on_done, "commit")

    def abort(self, *, on_done: OnDone) -> None:
        def fn():
            txn = self.txn
            self.txn = None
            if txn is not None:
                self._db.abort(txn)
        self._submit(fn, on_done, "abort")

    def prepare(self, *, on_done: OnDone) -> None:
        """Two-phase commit phase one: certify locally, keep the
        transaction open and prepared, deliver the shard's conflict
        summary.  A failed certification aborts and raises, so the
        session forgets the transaction exactly as commit() would."""
        def fn():
            txn = self._need_txn()
            try:
                return self._db.prepare_for_commit(txn)
            finally:
                if not txn.is_active:
                    self.txn = None
        self._submit(fn, on_done, "prepare")

    def commit_prepared(
        self, import_in: bool = False, import_out: bool = False,
        *, on_done: OnDone,
    ) -> None:
        """Two-phase commit phase two: commit the prepared transaction
        unconditionally, folding in the coordinator's merged flags."""
        def fn():
            txn = self._need_txn()
            try:
                self._db.commit_prepared(
                    txn, import_in=import_in, import_out=import_out,
                )
                self._db.finalize_commit(txn)
            finally:
                if not txn.is_active:
                    self.txn = None
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
        blocking through waits: the retry steps the same
        :class:`~repro.sim.ops.ProgramRun` on from where it stopped.
        Delivers the program's return value."""
        run: ProgramRun | None = None

        def fn():
            nonlocal run
            try:
                if run is None:
                    self.txn = self._db.begin(isolation)
                    run = ProgramRun(self._db, self.txn, program,
                                     partial(self._db.commit, wait=False))
                while run.step():
                    pass
                return run.value
            finally:
                if run is None or run.status != "running":
                    self.txn = None

        self._submit(fn, on_done, "program")

    def close(self, *, on_done: OnDone | None = None) -> None:
        """Abort any open transaction and refuse further invocations.
        Pending queued invocations fail with :class:`SessionClosedError`."""
        def fn():
            txn = self.txn
            self.txn = None
            if txn is not None and txn.is_active:
                self._db.abort(txn)
            with self._state_lock:
                self._closed = True
                pending = list(self._inbox)
                self._inbox.clear()
            for invocation in pending:
                self._deliver(invocation, None, SessionClosedError("session closed"))
            self._scheduler._forget(self)
        self._submit(fn, on_done or (lambda result, error: None), "close",
                     allow_closed=True)

    def interrupt(self, error: TransactionAbortedError | None = None) -> None:
        """Doom the session's transaction and wake it if suspended.

        Callable from any thread (the server uses it when a client
        disconnects mid-wait).  A suspended lock wait is woken through
        the doom path's ``cancel_waits``; a suspended deferrable wait is
        woken by firing its safe-snapshot completion, after which the
        begin thunk observes the doom and fails.  A commit ticket is
        left alone: only the batch leader fires it — it observes the
        doom and resolves the ticket within its current pass — so a
        fired ticket always carries the verdict."""
        txn = self.txn
        if txn is not None and txn.is_active:
            self._db.doom(
                txn,
                error or TransactionAbortedError(
                    "session interrupted", txn_id=txn.id),
            )
            verdict = txn._safe_event
            if verdict is not None:
                verdict.set()

    # blocking facade -------------------------------------------------

    def call(self, method: str, /, *args: Any, **kwargs: Any) -> Any:
        """Blocking convenience: invoke ``method`` and wait for its
        outcome on the *calling* thread (which must not be a scheduler
        worker).  Returns the result or raises the delivered error."""
        done = threading.Event()
        box: dict = {}

        def on_done(result, error):
            box["result"], box["error"] = result, error
            done.set()

        getattr(self, method)(*args, on_done=on_done, **kwargs)
        done.wait()
        if box["error"] is not None:
            raise box["error"]
        return box["result"]

    # ------------------------------------------------------ internals

    def _need_txn(self):
        txn = self.txn
        if txn is None:
            raise TransactionStateError("session has no open transaction")
        return txn

    def _submit(self, fn: Callable[[], Any], on_done: OnDone, label: str,
                allow_closed: bool = False) -> None:
        invocation = _Invocation(fn, on_done, label)
        with self._state_lock:
            if self._closed and not allow_closed:
                closed = True
            else:
                closed = False
                self._inbox.append(invocation)
                wake = self._state is _IDLE
                if wake:
                    self._state = _READY
        if closed:
            self._deliver(invocation, None, SessionClosedError("session closed"))
            return
        if wake:
            if _get_running_loop() is None:
                self._scheduler._enqueue(self)
            else:
                self._step()  # inline on the event loop (module docstring)

    def _step(self) -> None:
        """Run queued invocations until the inbox drains or one suspends.
        Executed by exactly one thread at a time — a worker, or the
        submitting event loop for an inline run (the state machine
        guarantees a session is woken at most once)."""
        assert_no_latches_held("session step")
        with self._state_lock:
            self._state = _RUNNING
        while True:
            invocation = self._current
            if invocation is None:
                with self._state_lock:
                    if not self._inbox:
                        self._state = _IDLE
                        return
                    invocation = self._inbox.popleft()
            else:
                self._current = None
                denied = self._denied_wait_error()
                if denied is not None:
                    self._deliver(invocation, None, denied)
                    continue
            try:
                result = invocation.fn()
            except LockWaitRequired as wait:
                self._current = invocation
                self._suspend_on_request(wait.request)
                return
            except CompletionWaitRequired as wait:
                # A safe-snapshot verdict, or a commit group ridden
                # without occupying a worker: the batch leader fires the
                # ticket's completion after the group's certification,
                # flush and finalize.
                self._current = invocation
                self._suspend(wait.completion.on_fire, deadline=None)
                return
            except BaseException as error:
                self._deliver(invocation, None, error)
            else:
                self._deliver(invocation, result, None)

    def _denied_wait_error(self) -> BaseException | None:
        """Mirror of the blocking path's post-wait denial check: a DENIED
        request means the wait was cancelled (timeout, deadlock victim,
        owner doomed) — abort and surface the error instead of retrying."""
        request = self._pending_request
        self._pending_request = None
        if request is None or request.state is not RequestState.DENIED:
            return None
        txn = request.owner
        error = request.error or TransactionAbortedError(txn_id=txn.id)
        self._db.abort(txn)
        if txn is self.txn:
            self.txn = None
        return error

    def _suspend_on_request(self, request: LockRequest) -> None:
        self._pending_request = request
        timeout = self._db.config.lock_timeout
        self._suspend(
            lambda resume: request.on_resolve(resume),
            deadline=None if timeout is None else time.monotonic() + timeout,
        )

    def _suspend(self, subscribe, deadline: float | None) -> None:
        self._wait_started = time.monotonic()
        self._wait_deadline = deadline
        with self._state_lock:
            self._state = _SUSPENDED
        self._scheduler._note_suspended(self)
        # May fire _resume synchronously (already-resolved request) on
        # this thread, or later on a resolver's thread that holds the lock
        # manager latch — either way _resume only enqueues.
        subscribe(self._resume)

    def _resume(self, _source=None) -> None:
        with self._state_lock:
            if self._state is not _SUSPENDED:
                return
            self._state = _READY
        started, self._wait_started = self._wait_started, None
        self._wait_deadline = None
        self._scheduler._note_resumed(self, started)
        self._scheduler._enqueue(self)

    def _deliver(self, invocation: _Invocation, result: Any,
                 error: BaseException | None) -> None:
        try:
            invocation.on_done(result, error)
        except Exception:  # noqa: BLE001 - a client callback must not kill the worker
            pass

    def _fail_queued(self, error: BaseException) -> None:
        """The scheduler is gone: no worker will ever run this session
        again, so every queued invocation must be failed — a dropped
        ``on_done`` leaves callers (e.g. a server connection awaiting a
        close future) hanging forever.  An invocation a worker is
        actively running is left to that worker."""
        with self._state_lock:
            doomed = []
            if self._current is not None and self._state is not _RUNNING:
                doomed.append(self._current)
                self._current = None
            doomed.extend(self._inbox)
            self._inbox.clear()
            if self._state is not _RUNNING:
                self._state = _IDLE
        for invocation in doomed:
            self._deliver(invocation, None, error)


class SessionScheduler:
    """Drives N sessions over ``workers`` threads.

    Registers observability with the database's metrics registry:
    ``sessions_open`` / ``sessions_suspended`` gauges and the
    ``session_wait_time`` histogram (wall-clock suspend → resume,
    feeding the same latency story as ``lock_wait_time``).

    The scheduler owns the deadline duties a parked client thread would
    otherwise poll for: when the engine is configured with a
    ``lock_timeout`` or PERIODIC deadlock detection, one tick thread
    wakes every ``Database.wait_poll_interval`` to cancel overdue
    requests and run the sweep.  With neither configured there is no
    tick thread and nothing on the wait path ever polls.
    """

    def __init__(self, db: Database, workers: int = 4,
                 name: str = "session") -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.db = db
        self.workers = workers
        self._cv = threading.Condition()
        self._runq: deque[Session] = deque()
        self._closed = False
        self._sessions: set[Session] = set()
        self._suspended: set[Session] = set()
        self._registry_lock = threading.Lock()
        self._wait_histogram = db.metrics.histogram("session_wait_time")
        db.metrics.register_gauge("sessions_open", lambda: len(self._sessions))
        db.metrics.register_gauge(
            "sessions_suspended", lambda: len(self._suspended))
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"{name}-worker-{index}", daemon=True)
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()
        self._ticker: threading.Thread | None = None
        if db.config.lock_timeout is not None or db.needs_wait_polling:
            self._ticker = threading.Thread(
                target=self._tick_loop, name=f"{name}-ticker", daemon=True)
            self._ticker.start()

    # ------------------------------------------------------ public API

    def session(self) -> Session:
        """Open a new session on this scheduler."""
        with self._cv:
            if self._closed:
                raise SessionClosedError("scheduler is shut down")
        session = Session(self)
        with self._registry_lock:
            self._sessions.add(session)
        return session

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop accepting work and join the worker pool.  Sessions still
        suspended keep their engine state; callers that need a clean
        lock table abort/close their sessions first.  An event loop can
        still run an idle session's invocation inline — a server
        connection that closes after shutdown still releases its
        transaction — but nothing resumes after a wait."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._cv.notify_all()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        if self._ticker is not None:
            self._ticker.join(max(0.0, deadline - time.monotonic()))
        # Invocations still queued (or stranded in the runq) can never
        # run now — fail them so no caller waits on a dead scheduler.
        with self._registry_lock:
            stranded = list(self._sessions)
        error = SessionClosedError("scheduler is shut down")
        for session in stranded:
            session._fail_queued(error)

    @property
    def open_sessions(self) -> int:
        return len(self._sessions)

    @property
    def suspended_sessions(self) -> int:
        return len(self._suspended)

    # ------------------------------------------------------ internals

    def _enqueue(self, session: Session) -> None:
        # Called from worker threads and from resume callbacks that may
        # run under the lock manager latch: append + notify only.
        with self._cv:
            if not self._closed:
                self._runq.append(session)
                self._cv.notify()
                return
        # Closed scheduler: the session will never be run again, so its
        # queued invocations must fail loudly rather than hang silently.
        session._fail_queued(SessionClosedError("scheduler is shut down"))

    def _forget(self, session: Session) -> None:
        with self._registry_lock:
            self._sessions.discard(session)
            self._suspended.discard(session)

    def _note_suspended(self, session: Session) -> None:
        with self._registry_lock:
            self._suspended.add(session)

    def _note_resumed(self, session: Session, started: float | None) -> None:
        with self._registry_lock:
            self._suspended.discard(session)
        if started is not None:
            self._wait_histogram.observe(time.monotonic() - started)

    def _worker(self) -> None:
        while True:
            with self._cv:
                while not self._runq and not self._closed:
                    self._cv.wait()
                if self._closed:
                    return
                session = self._runq.popleft()
            session._step()

    def _tick_loop(self) -> None:
        """Deadline duties for suspended sessions — the scheduler-side
        twin of the blocking path's timed waits.  This is the only
        consumer of ``wait_poll_interval`` in session mode."""
        db = self.db
        interval = db.wait_poll_interval
        while True:
            with self._cv:
                if self._closed:
                    return
            time.sleep(interval)
            if db.config.lock_timeout is not None:
                now = time.monotonic()
                with self._registry_lock:
                    suspended = list(self._suspended)
                for session in suspended:
                    request = session._pending_request
                    deadline = session._wait_deadline
                    if (
                        request is not None
                        and deadline is not None
                        and now >= deadline
                        and not request.resolved
                    ):
                        db.cancel_lock_request(request)
            if db.needs_wait_polling:
                db.poll_waiters()
