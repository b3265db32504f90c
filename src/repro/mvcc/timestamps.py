"""Logical timestamps.

The engine orders events with a single monotonically increasing integer
counter.  Begin timestamps and commit timestamps are drawn from the same
sequence, so two transactions are *concurrent* exactly when their
``[begin, commit)`` intervals intersect (paper Section 2.1).
"""

from __future__ import annotations

import itertools
import threading


class LogicalClock:
    """A thread-safe monotonically increasing logical clock.

    Timestamps start at 1; 0 is reserved as "before everything" so that
    initial data loaded at timestamp 0 is visible to every snapshot.
    """

    def __init__(self):
        self._counter = itertools.count(1)
        self._lock = threading.Lock()
        self._last = 0

    def next(self) -> int:
        """Return a fresh timestamp, strictly greater than all before it."""
        with self._lock:
            self._last = next(self._counter)
            return self._last

    def advance_to(self, ts: int) -> None:
        """Move the clock up to ``ts`` in one step (recovery: timestamps
        up to ``ts`` were issued before the crash); never backwards."""
        with self._lock:
            if ts > self._last:
                self._counter = itertools.count(ts + 1)
                self._last = ts

    def now(self) -> int:
        """Return the most recently issued timestamp (0 if none yet)."""
        return self._last

    def __repr__(self) -> str:
        return f"LogicalClock(now={self._last})"
