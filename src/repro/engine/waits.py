"""The engine's one wait: a one-shot :class:`Completion`.

A lock request (:class:`repro.locking.manager.LockRequest` subclasses
this class) and a deferrable transaction's safe-snapshot verdict are
completions; a commit never waits on one.  An
operation that must wait raises :class:`~repro.errors.CompletionWaitRequired`
carrying one; an executor parks a thread on :meth:`wait` or subscribes
through :meth:`on_fire`, then re-invokes the operation, which finds out
how the wait ended.

The first :meth:`set` wins and fires the subscribers exactly once, even
against a concurrent :meth:`on_fire`.  Callbacks run on the *firing*
thread, which may hold engine latches (the lock-manager latch during a
grant, the tracker latch inside ``SafeSnapshotMonitor`` verdicts), so a
callback must only hand work off — set an event, wake a session — never
re-enter the engine.  A raising callback cannot skip the others or
unwind the resolver: its error is contained, counted as
``lock_callback_errors`` in the lock manager's counters and traced as a
``CALLBACK_ERROR`` event.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.obs.trace import EventType

__all__ = ["Completion"]


class Completion:
    """A one-shot, thread-safe completion with callback subscription.

    Exposes the ``set()`` interface of :class:`threading.Event` (the
    engine's safe-snapshot monitor fires verdicts through exactly that
    method) plus :meth:`on_fire` subscription for executors that must
    not block a thread.

    ``owner`` is the transaction that waits (its id labels the trace
    event of a contained callback error); ``sink`` is the lock manager
    whose ``stats`` and ``trace`` account for those errors (None: they
    are swallowed uncounted).
    """

    __slots__ = ("owner", "_sink", "_lock", "_fired", "_callbacks", "_event")

    def __init__(self, owner: Any = None, sink: Any = None) -> None:
        self.owner = owner
        self._sink = sink
        self._lock = threading.Lock()
        self._fired = False
        self._callbacks: list[Callable[[Any], Any]] = []
        self._event: threading.Event | None = None

    @property
    def fired(self) -> bool:
        return self._fired

    def set(self, *outcome: Any) -> bool:
        """Fire the completion.  Idempotent: only the first call records
        ``outcome`` (see :meth:`_settle`) and runs the subscribed
        callbacks; later calls are no-ops.  Returns True when this call
        was the one that fired it."""
        with self._lock:
            if self._fired:
                return False
            self._settle(*outcome)
            self._fired = True
            callbacks, self._callbacks = self._callbacks, []
            event = self._event
        if event is not None:
            event.set()
        for callback in callbacks:
            self._notify(callback)
        return True

    def _settle(self, *outcome: Any) -> None:
        """Record the outcome, inside the first-wins transition (a
        subclass hook: a plain completion carries none)."""

    def on_fire(self, callback: Callable[[Any], Any]) -> None:
        """Subscribe; fires immediately (on the calling thread) when the
        completion has already been set."""
        with self._lock:
            if not self._fired:
                self._callbacks.append(callback)
                return
        self._notify(callback)

    def wait(self, timeout: float | None = None) -> bool:
        """Block the calling thread until fired (thin thread adapter:
        a lazily-created :class:`threading.Event` registered once)."""
        with self._lock:
            if self._fired:
                return True
            if self._event is None:
                self._event = threading.Event()
            event = self._event
        return event.wait(timeout)

    def _notify(self, callback: Callable[[Any], Any]) -> None:
        try:
            callback(self)
        except Exception as error:  # noqa: BLE001 - deliberate containment
            sink = self._sink
            if sink is None:
                return
            sink.stats.inc("lock_callback_errors")
            if sink.trace is not None:
                sink.trace.emit(
                    EventType.CALLBACK_ERROR,
                    getattr(self.owner, "id", None),
                    completion=repr(self), error=type(error).__name__,
                    message=str(error),
                )

    def __repr__(self) -> str:
        return f"Completion(fired={self._fired})"
