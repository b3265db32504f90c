"""The stress executors and their one drive loop.

:func:`drive_threads` splits a transaction budget across real client
threads.  :func:`run_threaded_stress` — the harness behind the
race-condition tests and the threaded benchmark cases — has each thread
run its programs through the blocking client API
(:func:`repro.sim.direct.run_program`).  :func:`run_session_stress`
runs its clients as coroutines on one event loop, the way the wire
server runs connections: each owns one session of a
:class:`~repro.session.SessionScheduler` and runs its programs through
it, suspending on each wait.  Both then quiesce the engine and audit
what is left behind.

The audit is the point.  A latching bug rarely crashes — it loses a
SIREAD lock, leaks a granted row in the lock table, or commits a
non-serializable interleaving.  The returned :class:`StressResult`
therefore carries, besides throughput numbers:

- the MVSG serializability verdict over the recorded history (when
  ``check_serializability`` is set — the commit-order oracle of
  :mod:`repro.sgt.checker`),
- residual lock-table state after suspended-transaction cleanup
  (``lock_table_clean`` — a lost ``release_all`` or an orphaned SIREAD
  sentinel shows up here),
- per-program commit/abort tallies, so workload-level invariants (e.g.
  sibench's "sum of rows == committed updates") can be checked by the
  caller against the final table contents.

Determinism: client ``i`` draws from ``random.Random(seed * 1000 + i)``,
so a stress run's *program sequence* is reproducible per client even
though the interleaving is not.  The sharded runner
(:mod:`repro.shard.stress`) drives its coordinator through the same
loop.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Generator, Hashable, Optional

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.session import SessionScheduler
from repro.sgt.checker import check_serializable
from repro.sim.direct import run_program
from repro.sim.ops import ABORTS, abort_reason
from repro.sim.workload import Workload


@dataclass(slots=True)
class StressResult:
    """Outcome of one threaded stress run, including the post-quiesce
    engine audit."""

    workload: str
    level: str
    threads: int
    #: transactions attempted (``txns_per_thread * threads``)
    txns: int
    commits: int
    aborts: int
    wall_clock_s: float
    #: per-program-name tallies (the workload mix names)
    commits_by_name: dict
    aborts_by_name: dict
    #: MVSG verdict over the recorded history; None when not requested
    serializable: Optional[bool]
    serialization_detail: str
    #: lock-table rows still granted after cleanup (should be 0)
    residual_granted: int
    #: owners still registered in the lock table after cleanup
    residual_owners: int
    #: owners still queued on a lock after cleanup
    residual_waiters: int
    #: committed-suspended records cleanup could not retire
    residual_suspended: int
    #: entries still on the manager's per-owner SIREAD read lists after
    #: the quiesce (an unweighted count: a folded range is one entry) —
    #: the SIREAD-lifecycle leak detector: a grant that landed after its
    #: owner's release pass shows up here
    residual_siread: int = 0

    @property
    def lock_table_clean(self) -> bool:
        """No locks, owners, waiters or SIREAD sentinels survived the
        quiesce — every commit/abort path released what it acquired."""
        return (
            self.residual_granted == 0
            and self.residual_owners == 0
            and self.residual_waiters == 0
            and self.residual_siread == 0
        )

    @property
    def throughput(self) -> float:
        """Commits per wall-clock second."""
        return self.commits / self.wall_clock_s if self.wall_clock_s > 0 else 0.0

    def describe(self) -> str:
        verdict = (
            "unchecked" if self.serializable is None
            else ("serializable" if self.serializable else "NON-SERIALIZABLE")
        )
        return (
            f"{self.workload} @{self.level} x{self.threads}thr: "
            f"{self.commits} commits / {self.aborts} aborts in "
            f"{self.wall_clock_s:.2f}s ({verdict}, "
            f"{'clean' if self.lock_table_clean else 'DIRTY'} lock table)"
        )


def _open_database(
    workload: Workload, config: EngineConfig | None,
    check_serializability: bool,
    on_database: Callable[[Database], None] | None,
) -> Database:
    """The shared database of a stress run: history recording on when
    the MVSG oracle is requested, workload loaded, ``on_database`` run."""
    if config is None:
        config = EngineConfig(record_history=check_serializability)
    elif check_serializability and not config.record_history:
        config = replace(config, record_history=True)
    db = Database(config)
    workload.setup(db)
    if on_database is not None:
        on_database(db)
    return db


def _audit(
    db: Database, workload: Workload, level: str, threads: int, txns: int,
    wall: float, commits_by_name: dict, aborts_by_name: dict,
    check_serializability: bool,
    invariant: Callable[[Database], None] | None,
) -> StressResult:
    """The audit every stress driver ends with, once its clients are
    done: residual lock-table state, MVSG verdict, caller's invariant."""
    # Quiesce: with no transaction active the cleanup horizon is
    # unbounded, so whatever the audit's sweep leaves is a leak and lands
    # in the result.
    residue = db.audit()
    serializable: Optional[bool] = None
    detail = ""
    if check_serializability:
        report = check_serializable(db.history)
        serializable = report.serializable
        detail = report.describe()
    result = StressResult(
        workload=workload.name,
        level=level,
        threads=threads,
        txns=txns,
        commits=sum(commits_by_name.values()),
        aborts=sum(aborts_by_name.values()),
        wall_clock_s=wall,
        commits_by_name=commits_by_name,
        aborts_by_name=aborts_by_name,
        serializable=serializable,
        serialization_detail=detail,
        residual_granted=residue["granted"],
        residual_owners=residue["owners"],
        residual_waiters=residue["waiters"],
        residual_suspended=residue["suspended"],
        residual_siread=residue["siread"],
    )
    if invariant is not None:
        invariant(db)
    return result


def drive_threads(
    target,
    level: str,
    threads: int,
    txns_per_thread: int,
    seed: int,
    next_program: Callable[[random.Random], tuple[Hashable, Generator]],
    tally: Callable[[Hashable, str | None], None],
) -> float:
    """The one drive loop of the threaded and sharded runners.

    ``threads`` real threads start together; thread ``i`` draws
    ``txns_per_thread`` ``(label, program)`` pairs from
    ``next_program(random.Random(seed * 1000 + i))`` and runs each at
    ``level``.  ``target`` is a database or a coordinator; the thread
    runs each program through :func:`~repro.sim.direct.run_program`,
    blocking through its waits.  Aborts (see
    :func:`~repro.sim.ops.abort_reason`) are expected outcomes; any
    other exception in a client thread fails the run.  Once every
    thread has joined, ``tally(label, reason)`` is called for each
    transaction — ``reason`` None for a commit, else the abort's
    classification.  Returns the wall-clock seconds from first start to
    last join.
    """
    barrier = threading.Barrier(threads)
    outcomes: list[list] = [[] for _ in range(threads)]
    failures: list[BaseException] = []

    def client(index: int) -> None:
        rng = random.Random(seed * 1000 + index)
        done = outcomes[index]
        barrier.wait()
        try:
            for _ in range(txns_per_thread):
                label, program = next_program(rng)
                try:
                    run_program(target, program, level)
                    done.append((label, None))
                except ABORTS as error:
                    done.append((label, abort_reason(error)))
        except BaseException as exc:  # engine bug, not a CC outcome
            failures.append(exc)

    clients = [
        threading.Thread(target=client, args=(index,), name=f"stress-{index}")
        for index in range(threads)
    ]
    start = time.perf_counter()
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    wall = time.perf_counter() - start
    if failures:
        raise failures[0]
    for done in outcomes:
        for label, reason in done:
            tally(label, reason)
    return wall


def run_threaded_stress(
    workload: Workload,
    level: str = "ssi",
    threads: int = 4,
    txns_per_thread: int = 125,
    seed: int = 20080501,
    config: EngineConfig | None = None,
    check_serializability: bool = False,
    invariant: Callable[[Database], None] | None = None,
    on_database: Callable[[Database], None] | None = None,
) -> StressResult:
    """Run ``threads`` real threads, each executing ``txns_per_thread``
    workload transactions at ``level`` against one shared database
    (:func:`drive_threads`).

    Aborts raised by the engine (SSI unsafe, deadlock victim,
    first-committer-wins...) are expected outcomes and tallied; any other
    exception in a client thread fails the run.  After all threads join,
    the engine is quiesced (suspended-transaction cleanup runs with no
    one active) and the lock table audited; ``invariant`` — if given —
    then inspects the final database state and raises on violation.
    ``on_database`` runs right after workload setup, before any client
    thread starts — the seam for attaching samplers (e.g. a peak
    lock-table-gauge watcher) or tracing to the shared database.
    """
    db = _open_database(workload, config, check_serializability, on_database)
    commits_by_name: dict = {}
    aborts_by_name: dict = {}
    wall = drive_threads(db, level, threads, txns_per_thread, seed,
                         workload.next_transaction,
                         partial(_tally, commits_by_name, aborts_by_name))
    return _audit(
        db, workload, level, threads, txns_per_thread * threads, wall,
        commits_by_name, aborts_by_name, check_serializability, invariant,
    )


def run_session_stress(
    workload: Workload,
    level: str = "ssi",
    sessions: int = 32,
    txns_per_session: int = 16,
    seed: int = 20080501,
    config: EngineConfig | None = None,
    check_serializability: bool = False,
    invariant: Callable[[Database], None] | None = None,
    on_database: Callable[[Database], None] | None = None,
) -> StressResult:
    """Session twin of :func:`run_threaded_stress`: the same engine
    reached through sessions, which suspend on every lock and
    safe-snapshot wait instead of blocking inside the engine.

    ``sessions`` clients run as coroutines on one ``asyncio.run`` loop,
    the way the wire server runs connections.  Each owns one session and
    runs ``txns_per_session`` workload programs through it, drawing from
    ``random.Random(seed * 1000 + index)`` like thread ``index`` of the
    threaded runner; a program hands the loop back between its steps, so
    the clients interleave op by op.  After the scheduler shuts down,
    the same post-quiesce audit applies: MVSG verdict, residual
    lock-table state, invariants.
    """
    db = _open_database(workload, config, check_serializability, on_database)
    scheduler = SessionScheduler(db)
    commits_by_name: dict = {}
    aborts_by_name: dict = {}
    tally = partial(_tally, commits_by_name, aborts_by_name)

    async def client(index: int) -> None:
        rng = random.Random(seed * 1000 + index)
        session = scheduler.session()
        for _ in range(txns_per_session):
            name, program = workload.next_transaction(rng)
            try:
                await session.invoke("run_program", program, level)
                tally(name, None)
            except ABORTS as error:
                tally(name, abort_reason(error))
        await session.invoke("close")

    async def drive() -> float:
        start = time.perf_counter()
        await asyncio.gather(*(client(index) for index in range(sessions)))
        return time.perf_counter() - start

    try:
        wall = asyncio.run(drive())
    finally:
        scheduler.shutdown()
    return _audit(
        db, workload, level, sessions, txns_per_session * sessions, wall,
        commits_by_name, aborts_by_name, check_serializability, invariant,
    )


def _tally(commits_by_name: dict, aborts_by_name: dict,
           name: Hashable, reason: str | None) -> None:
    """Count one transaction of program ``name``: a commit when
    ``reason`` is None, else an abort."""
    by_name = commits_by_name if reason is None else aborts_by_name
    by_name[name] = by_name.get(name, 0) + 1


def final_rows(db: Database, table: str) -> dict[Hashable, object]:
    """The committed contents of ``table`` as seen by a fresh snapshot —
    the state workload invariants are checked against."""
    with db.begin("si") as txn:
        return dict(txn.scan(table))
