"""The engine's latch hierarchy.

Instead of one global "kernel mutex" the engine runs on a small set of
ranked latches, the direction Ports & Grittner (VLDB 2012) took when the
coarse SSI manager lock became PostgreSQL's dominant scalability
bottleneck.  Every latch has a *rank*; a thread may only acquire a latch
whose rank is greater than every latch it already holds (re-acquiring a
latch it holds is always legal — all latches are re-entrant; two
*different* latches of one rank never nest).  Any execution respecting
the rank order is deadlock-free.

The documented order (low rank acquired first)::

    txn(10) < tracker(20) < commit(30) < table(40) < lock(50)
            < obs(80) < wal(90)

What each level protects:

``txn``
    Registry/active sets, snapshot deque, retention lists, schema, id counter.
``tracker``
    Conflict-tracker / certifier state and every policy hook that mutates
    it; the commit decision (``before_commit`` .. status flip) runs under
    it so a concurrent ``mark_conflict`` can never slip between the
    unsafe check and the commit.
``commit``
    Commit-timestamp allocation + version installation + the status flip,
    so a snapshot taken under the same latch never observes a commit
    timestamp whose versions are still being installed.
``table``
    One latch per :class:`~repro.storage.table.Table`: B+-tree structure
    and version-chain install/prune.  Two *different* table latches may
    not be held at once (they share a rank), which the engine never
    needs.
``lock``
    The lock manager's single latch (see :mod:`repro.locking.manager`):
    the lock table and its wait queues (deadlock detection reads who
    waits for whom off them), the per-owner indexes and the manager
    counters — the whole of Section 4.4's "kernel mutex" that is left.
    Every public ``LockManager`` call is one critical section under it.
``obs``
    The leaf latch of :mod:`repro.obs`: ``CounterGroup.inc`` on counters
    no engine latch guards, histogram observation, trace emission,
    registry snapshots (not the engine's per-operation counters, folded
    in under ``txn``).  Nothing may be acquired under it.
``wal``
    Internal to :class:`~repro.wal.log.WriteAheadLog` consumers: commit
    record append + flush are serialised by it *after* every engine latch
    has been released, so log file I/O never happens under a latch.

Production latches are plain ``threading.RLock`` objects — zero wrapper
overhead on the hot paths.  Setting the environment variable
``REPRO_LATCH_DEBUG=1`` (read per :func:`make_latch` call, so tests can
flip it with ``monkeypatch``) swaps in :class:`CheckedLatch`, which
tracks a per-thread stack of held latches, raises
:class:`LatchOrderError` on any rank-order violation and counts its
acquisitions (reported by ``Database.describe``).  The engine's
blocking executor additionally asserts via :func:`held_latches` that no
checked latch is held across a lock wait.

A note on the GIL: under stock CPython latches do not buy parallel
*speed* — they buy correctness under preemptive thread switches (the GIL
is released every few bytecodes, so unprotected multi-step mutations do
tear).  That is why the lock manager has one latch and not a partitioned
table: a partition pays only when two grants can run at once, and here
they cannot.
"""

from __future__ import annotations

import os
import threading
from typing import Iterable

#: Canonical rank table (the documented latch order).
RANKS = {
    "txn": 10,
    "tracker": 20,
    "commit": 30,
    "table": 40,
    "lock": 50,
    "obs": 80,
    "wal": 90,
}


class LatchOrderError(RuntimeError):
    """A latch was acquired against the documented rank order."""


_held = threading.local()


def _held_stack() -> list:
    stack = getattr(_held, "stack", None)
    if stack is None:
        stack = _held.stack = []
    return stack


def held_latches() -> list["CheckedLatch"]:
    """Checked latches held by the calling thread, acquisition order.

    Production (unchecked) latches are invisible here: the function
    exists for assertions in debug-latch test runs, where it must be
    empty at every blocking point."""
    return [latch for latch, _count in _held_stack()]


class CheckedLatch:
    """An RLock that enforces the rank order (debug builds only)."""

    __slots__ = ("name", "rank", "acquisitions", "_lock")

    def __init__(self, name: str, rank: int):
        self.name = name
        self.rank = rank
        #: every ``__enter__``, re-entrant ones too (counted under the lock)
        self.acquisitions = 0
        self._lock = threading.RLock()

    def __enter__(self) -> "CheckedLatch":
        stack = _held_stack()
        if stack:
            top, _count = stack[-1]
            maximum = max(latch.rank for latch, _n in stack)
            if self.rank <= maximum and not any(
                latch is self for latch, _n in stack
            ):
                raise LatchOrderError(
                    f"acquiring {self.name}(rank {self.rank}) while holding "
                    f"{top.name}(rank {top.rank}) violates the latch order"
                )
        self._lock.acquire()
        self.acquisitions += 1
        for index, (latch, count) in enumerate(stack):
            if latch is self:
                stack[index] = (latch, count + 1)
                break
        else:
            stack.append((self, 1))
        return self

    def __exit__(self, *exc_info) -> None:
        stack = _held_stack()
        for index in range(len(stack) - 1, -1, -1):
            latch, count = stack[index]
            if latch is self:
                if count == 1:
                    del stack[index]
                else:
                    stack[index] = (latch, count - 1)
                break
        self._lock.release()

    def __repr__(self) -> str:
        return f"CheckedLatch({self.name!r}, rank={self.rank})"


def debug_enabled() -> bool:
    return os.environ.get("REPRO_LATCH_DEBUG", "") not in ("", "0")


def make_latch(name: str, rank: int | None = None):
    """A latch named after a rank-table entry (or an explicit rank).

    Returns a raw ``threading.RLock`` in production; a
    :class:`CheckedLatch` when ``REPRO_LATCH_DEBUG`` is set."""
    if rank is None:
        base = name.split("[", 1)[0]
        rank = RANKS[base]
    if debug_enabled():
        return CheckedLatch(name, rank)
    return threading.RLock()


def assert_no_latches_held(context: str) -> None:
    """Debug assertion: the calling thread holds no checked latch.

    Used at blocking points (``threading.Event.wait`` in the transaction
    executor): sleeping while holding a latch would stall every other
    client on it.  Free in production (no checked latches exist, the
    stack is empty)."""
    stack = getattr(_held, "stack", None)
    if stack:
        names = ", ".join(latch.name for latch, _count in stack)
        raise LatchOrderError(
            f"{context} would block while holding latch(es): {names}"
        )


def latch_acquisitions(latches: Iterable) -> dict[str, int]:
    """Acquisition counts by latch name, summed over latches sharing a
    name; empty in production, where latches are unchecked ``RLock``s."""
    counts: dict[str, int] = {}
    for latch in latches:
        if isinstance(latch, CheckedLatch):
            counts[latch.name] = counts.get(latch.name, 0) + latch.acquisitions
    return counts
