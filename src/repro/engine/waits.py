"""Completion primitives for the wait/notify spine.

A :class:`Completion` is the engine's one-shot "this wait is over"
object: resolvers call :meth:`set` exactly once, waiters either park a
thread on :meth:`wait` (the classic blocking client) or subscribe a
callback via :meth:`on_fire` (a suspended session, the asyncio
bridge).  Subscription and firing are serialised by a per-completion
lock so a callback registered concurrently with :meth:`set` fires
exactly once — the same contract :class:`repro.locking.manager.LockRequest`
gives its resolve callbacks.

Callbacks run on the *firing* thread, which may hold engine latches
(e.g. the tracker latch inside ``SafeSnapshotMonitor`` verdicts), so a
callback must only hand work off — set an event, enqueue a session —
never re-enter the engine.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

__all__ = ["Completion"]


class Completion:
    """A one-shot, thread-safe completion with callback subscription.

    Exposes the ``set()`` interface of :class:`threading.Event` (the
    engine's safe-snapshot monitor fires verdicts through exactly that
    method) plus :meth:`on_fire` subscription for executors that must
    not block a thread.
    """

    __slots__ = ("_lock", "_fired", "_callbacks", "_event")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._fired = False
        self._callbacks: list[Callable[["Completion"], Any]] = []
        self._event: threading.Event | None = None

    @property
    def fired(self) -> bool:
        return self._fired

    def set(self) -> bool:
        """Fire the completion.  Idempotent: only the first call runs the
        subscribed callbacks; later calls are no-ops.  Returns True when
        this call was the one that fired it."""
        with self._lock:
            if self._fired:
                return False
            self._fired = True
            callbacks, self._callbacks = self._callbacks, []
            event = self._event
        if event is not None:
            event.set()
        for callback in callbacks:
            callback(self)
        return True

    def on_fire(self, callback: Callable[["Completion"], Any]) -> None:
        """Subscribe; fires immediately (on the calling thread) when the
        completion has already been set."""
        with self._lock:
            if not self._fired:
                self._callbacks.append(callback)
                return
        callback(self)

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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Completion(fired={self._fired})"
