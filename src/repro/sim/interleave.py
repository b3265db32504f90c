"""Exhaustive interleaving testing (paper Section 4.7).

The paper validated the InnoDB prototype by generating *every*
interleaving of transaction sets known to cause write skew and checking
that at least one transaction aborts with the "unsafe" error while plain
SI commits them all.  This module reproduces that harness: programs are
stepped one operation at a time in every possible order, a wait defers
a step until its completion fires, and each execution's history can be fed
to the MVSG oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterator, Sequence

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.isolation import IsolationLevel
from repro.errors import CompletionWaitRequired
from repro.sim.ops import ABORTS, ProgramRun


def all_interleavings(lengths: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every distinct merge order of per-transaction step counts.

    ``lengths[i]`` is the number of steps of transaction i (its yields
    plus one commit step).  Yields tuples of transaction indices.
    """
    total = sum(lengths)

    def recurse(remaining: list[int], prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if len(prefix) == total:
            yield tuple(prefix)
            return
        for index, count in enumerate(remaining):
            if count > 0:
                remaining[index] -= 1
                prefix.append(index)
                yield from recurse(remaining, prefix)
                prefix.pop()
                remaining[index] += 1

    yield from recurse(list(lengths), [])


@dataclass(slots=True)
class InterleavingOutcome:
    """Result of executing one interleaving."""

    order: tuple[int, ...]
    statuses: dict[int, str] = field(default_factory=dict)
    #: each program's return value (None unless it returned)
    values: dict[int, Any] = field(default_factory=dict)
    db: Database | None = None

    @property
    def committed(self) -> list[int]:
        return [idx for idx, status in self.statuses.items() if status == "committed"]

    @property
    def aborted(self) -> dict[int, str]:
        return {
            idx: status
            for idx, status in self.statuses.items()
            if status != "committed"
        }

    @property
    def all_committed(self) -> bool:
        return all(status == "committed" for status in self.statuses.values())


def run_interleaving(
    setup: Callable[[Database], None],
    program_factories: Sequence[Callable[[], Generator]],
    order: Sequence[int],
    isolation: IsolationLevel | str = IsolationLevel.SERIALIZABLE_SSI,
    engine_config: EngineConfig | None = None,
    db_factory: Callable[[EngineConfig], Database] | None = None,
) -> InterleavingOutcome:
    """Execute the programs in the given step order against a fresh DB.

    Each schedule slot is one :meth:`ProgramRun.step` of that
    transaction.  A step that must wait is retried after its wait fired
    and steps of other transactions ran (deferring preserves the relative
    order of the remaining steps); a full pass with no progress means an
    unresolvable wait cycle, which a deadlock sweep breaks, or waits only
    a lock_timeout ends (a configured one cancels them all).  A
    transaction ends "committed", with its abort reason, "blocked" (the
    schedule ran out while it waited) or "running".

    ``db_factory`` substitutes any object with the Database op surface
    (e.g. a sharding coordinator over LocalShard backends) — the seam
    the single-shard fast-path equivalence tests step through.
    """
    config = engine_config or EngineConfig(record_history=True)
    db = db_factory(config) if db_factory is not None else Database(config)
    setup(db)
    isolation = IsolationLevel.parse(isolation)

    runs = [ProgramRun(db, db.begin(isolation), factory(), db.commit)
            for factory in program_factories]
    #: each run's pending wait, until it fires and the run steps again
    waits: list[CompletionWaitRequired | None] = [None] * len(runs)
    schedule = deque(order)
    stall = 0
    while schedule:
        index = schedule.popleft()
        run = runs[index]
        if run.status != "running":
            stall = 0
            continue
        if _step(run, waits, index):
            stall = 0
        else:
            schedule.append(index)
            stall += 1
            if stall > len(schedule) + 1:
                # Everyone is blocked, so only time can help: a
                # periodic-style deadlock sweep, else the lock waits run
                # into their lock_timeout, if one is configured.
                if not db.sweep_deadlocks() and not _time_out(waits):
                    break
                stall = 0

    outcome = InterleavingOutcome(order=tuple(order), db=db)
    for index, run in enumerate(runs):
        blocked = run.status == "running" and waits[index] is not None
        outcome.statuses[index] = "blocked" if blocked else run.status
        outcome.values[index] = run.value
    return outcome


def exhaustive_outcomes(
    setup: Callable[[Database], None],
    program_factories: Sequence[Callable[[], Generator]],
    step_counts: Sequence[int],
    isolation: IsolationLevel | str = IsolationLevel.SERIALIZABLE_SSI,
    engine_config_factory: Callable[[], EngineConfig] | None = None,
    db_factory: Callable[[EngineConfig], Database] | None = None,
) -> list[InterleavingOutcome]:
    """Run every interleaving; returns all outcomes."""
    outcomes = []
    for order in all_interleavings(step_counts):
        config = (
            engine_config_factory() if engine_config_factory else EngineConfig(record_history=True)
        )
        outcomes.append(
            run_interleaving(setup, program_factories, order, isolation, config,
                             db_factory=db_factory)
        )
    return outcomes


def _step(run: ProgramRun, waits: list, index: int) -> bool:
    """One schedule slot of run ``index``; False when it is still
    waiting."""
    wait = waits[index]
    if wait is not None and not wait.completion.fired:
        return False
    waits[index] = None
    try:
        run.step()
    except CompletionWaitRequired as pending:
        waits[index] = pending
        return False
    except ABORTS:
        pass  # the run recorded its abort reason
    return True


def _time_out(waits: list) -> bool:
    """Cancel every pending lock wait whose engine sets a
    ``lock_timeout``; True if any was cancelled."""
    timed_out = False
    for wait in waits:
        if wait is not None and wait.request is not None:
            engine = wait.txn._db
            if engine.config.lock_timeout is not None:
                timed_out |= engine.cancel_lock_request(wait.request)
    return timed_out
