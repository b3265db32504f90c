"""The discrete-event simulator.

Models the paper's measurement rig: MPL clients executing transactions
back-to-back with no think time (Section 6.1), a CPU with configurable
core count, and a write-ahead log device with group commit whose flush
latency dominates the "long transactions" experiments (Section 6.1.3).

Time is simulated; concurrency control is real.  Each client is one
generator process that reads like a thread running its transactions in
a loop: it yields the simulated time its next CPU slot ends, the
completion of a wait the engine reported (an enqueued lock request), or
the log device's ``submit`` while its commit is flushed, and
:meth:`Simulator._step` resumes it from the event heap when that time
comes, that completion fires or that flush is durable.  Periodic
deadlock sweeps (Berkeley DB-style engines) and vacuum are processes
too.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Generator

from repro.engine.config import DeadlockMode
from repro.engine.database import Database
from repro.engine.isolation import IsolationLevel
from repro.engine.waits import Completion
from repro.errors import CompletionWaitRequired
from repro.sim.metrics import SimResult
from repro.sim.ops import ABORTS, Compute, ProgramRun
from repro.sim.workload import Workload

#: CPU seconds per engine operation (~tens of µs, giving the ~20k
#: commits/s ceiling of Fig 6.1 for 4-5-op transactions).
OP_COST = 25e-6
#: CPU seconds per :class:`~repro.sim.ops.Compute` unit.
COMPUTE_UNIT_COST = 2e-6
#: CPU seconds per lock-manager request — this is how "the additional
#: lock manager activity required by Serializable SI" (Section 1.4.3)
#: costs something: an SSI, SGT or S2PL scan pays for its one key-range
#: lock (per page under PAGE granularity), a plain SI scan pays nothing.
LOCK_OP_COST = 1e-6
#: sweep period for PERIODIC deadlock detection (db_perf runs it twice
#: per second — Section 6.1.3).
DEADLOCK_INTERVAL = 0.5


@dataclass(slots=True)
class SimConfig:
    """Simulation parameters.

    Attributes:
        duration: measured simulated seconds.
        warmup: simulated seconds before counters start.
        cores: CPU cores (the paper's testbed is a single-core Athlon64).
        commit_flush: pay a log flush at commit (the Fig 6.2/6.3 regime;
            ~10 ms turns 100 µs transactions into 10 ms ones).
        flush_time: log-flush latency in seconds; one flush commits every
            transaction queued behind it (group commit).
        vacuum_interval: simulated seconds between version garbage
            collections (0 disables) — keeps version chains bounded in
            long runs, like Berkeley DB's old-version reclamation.
        seed: RNG seed (per-client streams derive from it).

    CPU costs and the deadlock-sweep period are the module constants
    above.  Read-only transactions skip the commit flush (they write no
    log records); writers hold their locks through the flush, the
    flush-then-release ordering the paper enforces in InnoDB (Section 4.4).
    """

    duration: float = 5.0
    warmup: float = 0.5
    cores: int = 1
    commit_flush: bool = False
    flush_time: float = 0.010
    vacuum_interval: float = 0.0
    seed: int = 42


class _LogDevice:
    """Group-commit log: one flush, many commits (Section 6.1.3)."""

    def __init__(self, simulator: "Simulator"):
        self._sim = simulator
        self._busy = False
        self._queue: list[Callable[[], None]] = []

    def submit(self, on_durable: Callable[[], None]) -> None:
        self._queue.append(on_durable)
        if not self._busy:
            self._start_flush()

    def _start_flush(self) -> None:
        self._busy = True
        batch, self._queue = self._queue, []
        done_at = self._sim.now + self._sim.config.flush_time

        def complete() -> None:
            for on_durable in batch:
                on_durable()
            self._busy = False
            if self._queue:
                self._start_flush()

        self._sim.schedule_at(done_at, complete)


class Simulator:
    """Runs one (workload, isolation level, MPL) configuration."""

    def __init__(
        self,
        database: Database,
        workload: Workload,
        isolation: IsolationLevel | str,
        mpl: int,
        config: SimConfig | None = None,
        isolation_overrides: dict | None = None,
    ):
        self.db = database
        self.workload = workload
        self.isolation = IsolationLevel.parse(isolation)
        #: per-program-name isolation override — the Section 3.8
        #: configuration runs queries at SNAPSHOT among SSI updates.
        self.isolation_overrides = {
            name: IsolationLevel.parse(level)
            for name, level in (isolation_overrides or {}).items()
        }
        self.mpl = mpl
        self.config = config or SimConfig()
        self.now = 0.0
        self._events: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._cores = [0.0] * self.config.cores
        self._log = _LogDevice(self)
        self.result = SimResult(
            isolation=self.isolation.value, mpl=mpl, duration=self.config.duration
        )
        self._horizon = self.config.warmup + self.config.duration
        #: lock-wait histogram, cached off the database's registry so a
        #: wait pays one attribute load.
        self._h_lock_wait = database.metrics.histogram("lock_wait_time")

    # ------------------------------------------------------------ plumbing

    def schedule_at(self, when: float, fn: Callable[[], None]) -> None:
        heapq.heappush(self._events, (when, next(self._seq), fn))

    def _step(self, process: Generator) -> None:
        """Run ``process`` to its next yield and arrange its resumption:
        a yielded time resumes it from the event heap at that time, a
        :class:`~repro.engine.waits.Completion` in an event at the time
        it fires, and a callable (the log device's ``submit``) is handed
        the resumption to call itself."""
        try:
            waiting_for = next(process)
        except StopIteration:
            return
        resume = lambda: self._step(process)  # noqa: E731
        if isinstance(waiting_for, Completion):
            waiting_for.on_fire(lambda _fired: self.schedule_at(self.now, resume))
        elif callable(waiting_for):
            waiting_for(resume)
        else:
            self.schedule_at(waiting_for, resume)

    def _cpu_slot(self, cost: float) -> float:
        """Reserve ``cost`` CPU seconds from now; returns when they end."""
        core = min(range(len(self._cores)), key=self._cores.__getitem__)
        start = max(self.now, self._cores[core])
        end = start + cost
        self._cores[core] = end
        return end

    def _measuring(self) -> bool:
        return self.now >= self.config.warmup

    # ------------------------------------------------------------ main loop

    def run(self) -> SimResult:
        for index in range(self.mpl):
            self._step(self._client(random.Random(
                (self.config.seed << 16) ^ (index * 2654435761 % 2**31))))
        if self.db.config.deadlock_mode is DeadlockMode.PERIODIC:
            self._step(self._every(DEADLOCK_INTERVAL, self.db.sweep_deadlocks))
        if self.config.vacuum_interval > 0:
            self._step(self._every(self.config.vacuum_interval, self.db.vacuum))
        while self._events:
            when, _seq, fn = heapq.heappop(self._events)
            if when > self._horizon:
                break
            self.now = when
            fn()
        # One deep, immutable-by-copy snapshot from the engine's metrics
        # registry: exported results never alias live engine state (the
        # nested aborts dict in particular used to leak by reference).
        snapshot = self.db.metrics.snapshot()
        self.result.engine_stats = {
            "locks": snapshot["counters"]["locks"],
            "tracker": snapshot["counters"]["tracker"],
            "engine": snapshot["counters"]["engine"],
            "histograms": snapshot["histograms"],
            "suspended_peak": snapshot["counters"]["engine"]["suspended_peak"],
        }
        return self.result

    def _every(self, interval: float, action: Callable[[], object]) -> Generator:
        """Process: run ``action`` every ``interval`` simulated seconds.

        Each tick is due ``interval`` after the previous tick was *due*,
        not after it ran: if a tick ever runs late (event bursts
        scheduled ahead of it at the same timestamp), the cadence catches
        back up instead of permanently slipping by the delay."""
        due = self.now
        while True:
            due += interval
            yield due
            action()

    # ------------------------------------------------------------ clients

    def _client(self, rng: random.Random) -> Generator:
        """Process: one client running transactions back to back."""
        while True:
            yield from self._transaction(rng)
            yield self.now

    def _transaction(self, rng: random.Random) -> Generator:
        """Process body: one transaction from begin to commit or abort,
        counted once it ends; returns its finished :class:`ProgramRun`."""
        name, program = self.workload.next_transaction(rng)
        started = self.now
        txn = self.db.begin(self.isolation_overrides.get(name, self.isolation))
        run = ProgramRun(self.db, txn, program, self.db.prepare_commit)
        locks = self.db.locks.stats
        try:
            while run.op is not None:
                op = run.op
                cost = (op.units * COMPUTE_UNIT_COST if isinstance(op, Compute)
                        else OP_COST)
                yield self._cpu_slot(cost)
                while True:
                    acquires = locks["acquires"]
                    try:
                        result = run.apply()
                        break
                    except CompletionWaitRequired as wait:
                        yield from self._wait(wait)
                lock_calls = locks["acquires"] - acquires
                if lock_calls > 0:
                    yield self._cpu_slot(lock_calls * LOCK_OP_COST)
                run.advance(result)
            has_writes = bool(txn.write_set)
            run.step()  # prepare_commit: committed, locks still held
        except ABORTS:
            if self._measuring():
                aborts = self.result.aborts
                aborts[run.status if run.status in aborts else "aborted"] += 1
            return run
        if self.config.commit_flush and has_writes:
            yield self._log.submit
        self.db.finalize_commit(txn)
        if self._measuring():
            self.result.commits += 1
            self.result.commits_by_type[name] = (
                self.result.commits_by_type.get(name, 0) + 1)
            self.result.response_time_sum += self.now - started
        return run

    def _wait(self, wait: CompletionWaitRequired) -> Generator:
        """Process body: sit out one engine wait; the caller's retry
        aborts a run whose wait was cancelled by a doom."""
        started = self.now
        timeout = self.db.config.lock_timeout
        if timeout is not None and wait.request is not None:
            self.schedule_at(self.now + timeout,
                             lambda: self.db.cancel_lock_request(wait.request))
        yield wait.completion
        self._h_lock_wait.observe(self.now - started)


def run_simulation(
    workload: Workload,
    isolation: IsolationLevel | str,
    mpl: int,
    engine_config=None,
    sim_config: SimConfig | None = None,
) -> SimResult:
    """Convenience: fresh database + populate + simulate."""
    db = Database(engine_config)
    workload.setup(db)
    return Simulator(db, workload, isolation, mpl, sim_config).run()
