"""The discrete-event simulator.

Models the paper's measurement rig: MPL clients executing transactions
back-to-back with no think time (Section 6.1), a CPU with configurable
core count, and a write-ahead log device with group commit whose flush
latency dominates the "long transactions" experiments (Section 6.1.3).

Time is simulated; concurrency control is real.  Clients are parked when
the engine reports a wait (an enqueued lock request) and retry their
operation once its completion fires; periodic deadlock sweeps run on
simulated intervals for Berkeley DB-style engines.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.engine.config import DeadlockMode
from repro.engine.database import Database
from repro.engine.isolation import IsolationLevel
from repro.errors import CompletionWaitRequired
from repro.sim.metrics import SimResult
from repro.sim.ops import ABORTS, Compute, ProgramRun
from repro.sim.workload import Workload


@dataclass(slots=True)
class SimConfig:
    """Simulation parameters.

    Attributes:
        duration: measured simulated seconds.
        warmup: simulated seconds before counters start.
        cores: CPU cores (the paper's testbed is a single-core Athlon64).
        op_cost: CPU seconds per engine operation (~tens of µs, giving the
            ~20k commits/s ceiling of Fig 6.1 for 4-5-op transactions).
        compute_unit_cost: CPU seconds per Compute unit.
        commit_flush: pay a log flush at commit (the Fig 6.2/6.3 regime;
            ~10 ms turns 100 µs transactions into 10 ms ones).
        flush_time: log-flush latency in seconds; one flush commits every
            transaction queued behind it (group commit).
        deadlock_interval: sweep period for PERIODIC deadlock detection
            (db_perf runs it twice per second — Section 6.1.3).
        think_time: client delay between transactions (0 per the paper).
        lock_op_cost: CPU seconds per lock-manager request — this is how
            "the additional lock manager activity required by Serializable
            SI" (Section 1.4.3) costs something: an SSI, SGT or S2PL scan
            pays for its one key-range lock (per page under PAGE
            granularity), a plain SI scan pays nothing.
        vacuum_interval: simulated seconds between version garbage
            collections (0 disables) — keeps version chains bounded in
            long runs, like Berkeley DB's old-version reclamation.
        seed: RNG seed (per-client streams derive from it).

    Read-only transactions skip the commit flush (they write no log
    records); writers hold their locks through the flush, the
    flush-then-release ordering the paper enforces in InnoDB (Section 4.4).
    """

    duration: float = 5.0
    warmup: float = 0.5
    cores: int = 1
    op_cost: float = 25e-6
    compute_unit_cost: float = 2e-6
    commit_flush: bool = False
    flush_time: float = 0.010
    deadlock_interval: float = 0.5
    think_time: float = 0.0
    lock_op_cost: float = 1e-6
    vacuum_interval: float = 0.0
    seed: int = 42


class _Client:
    __slots__ = ("index", "rng", "name", "run", "started_at", "parked")

    def __init__(self, index: int, rng: random.Random):
        self.index = index
        self.rng = rng
        self.name: str | None = None
        self.run: ProgramRun | None = None
        self.started_at = 0.0
        self.parked = False


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
        #: lock-wait histogram, cached off the database's registry so the
        #: park/wake path pays one attribute load per wait.
        self._h_lock_wait = database.metrics.histogram("lock_wait_time")

    # ------------------------------------------------------------ plumbing

    def schedule_at(self, when: float, fn: Callable[[], None]) -> None:
        heapq.heappush(self._events, (when, next(self._seq), fn))

    def _cpu_slot(self, ready: float, cost: float) -> float:
        """Reserve CPU time; returns the completion time."""
        core = min(range(len(self._cores)), key=self._cores.__getitem__)
        start = max(ready, self._cores[core])
        end = start + cost
        self._cores[core] = end
        return end

    def _measuring(self) -> bool:
        return self.now >= self.config.warmup

    # ------------------------------------------------------------ main loop

    def run(self) -> SimResult:
        clients = [
            _Client(index, random.Random(
                (self.config.seed << 16) ^ (index * 2654435761 % 2**31)))
            for index in range(self.mpl)
        ]
        for client in clients:
            self._begin_transaction(client)
        if self.db.config.deadlock_mode is DeadlockMode.PERIODIC:
            self._schedule_deadlock_sweep()
        if self.config.vacuum_interval > 0:
            self._schedule_vacuum()
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

    def _schedule_periodic(self, start: float, interval: float, action) -> None:
        """Run ``action`` every ``interval`` simulated seconds.

        Each tick re-schedules from its *intended* fire time, not from
        ``self.now`` inside the callback: if a tick ever runs late (event
        bursts scheduled ahead of it at the same timestamp, or a callback
        that advances the clock), the cadence catches back up instead of
        permanently slipping by the delay."""

        def tick(fire_at: float) -> None:
            action()
            next_at = fire_at + interval
            self.schedule_at(next_at, lambda: tick(next_at))

        first = start + interval
        self.schedule_at(first, lambda: tick(first))

    def _schedule_deadlock_sweep(self) -> None:
        self._schedule_periodic(
            self.now, self.config.deadlock_interval, self.db.sweep_deadlocks
        )

    def _schedule_vacuum(self) -> None:
        self._schedule_periodic(
            self.now, self.config.vacuum_interval, self.db.vacuum
        )

    # -------------------------------------------------------- client logic

    def _begin_transaction(self, client: _Client) -> None:
        client.name, program = self.workload.next_transaction(client.rng)
        level = self.isolation_overrides.get(client.name, self.isolation)
        txn = self.db.begin(level)
        client.started_at = self.now
        client.run = ProgramRun(self.db, txn, program, self.db.prepare_commit)
        self._schedule_op(client)

    def _schedule_op(self, client: _Client) -> None:
        """Charge the CPU for the pending op (or commit once the program
        has returned)."""
        op = client.run.op
        if op is None:
            self._commit(client)
            return
        cost = self.config.op_cost
        if isinstance(op, Compute):
            cost = op.units * self.config.compute_unit_cost
        done = self._cpu_slot(self.now, cost)
        self.schedule_at(done, lambda: self._execute(client))

    def _execute(self, client: _Client) -> None:
        run = client.run
        acquires_before = self.db.locks.stats["acquires"]
        try:
            result = run.apply()
        except CompletionWaitRequired as wait:
            self._park(client, wait)
            return
        except ABORTS:
            self._finish_aborted(client, run.status)
            return
        lock_calls = self.db.locks.stats["acquires"] - acquires_before
        extra = lock_calls * self.config.lock_op_cost
        if extra > 0:
            done = self._cpu_slot(self.now, extra)
            self.schedule_at(done, lambda: self._resume(client, result))
        else:
            self._resume(client, result)

    def _resume(self, client: _Client, result) -> None:
        client.run.advance(result)
        self._schedule_op(client)

    def _park(self, client: _Client, wait: CompletionWaitRequired) -> None:
        client.parked = True
        wait_started = self.now
        timeout = self.db.config.lock_timeout
        if timeout is not None and wait.request is not None:
            self.schedule_at(self.now + timeout,
                             lambda: self.db.cancel_lock_request(wait.request))

        def wake() -> None:
            client.parked = False
            self._h_lock_wait.observe(self.now - wait_started)
            self._execute(client)  # the retry aborts a doomed run

        wait.completion.on_fire(lambda _fired: self.schedule_at(self.now, wake))

    def _commit(self, client: _Client) -> None:
        run = client.run
        txn = run.txn
        has_writes = bool(txn.write_set)
        try:
            run.step()  # prepare_commit: committed, locks still held
        except ABORTS:
            self._finish_aborted(client, run.status)
            return

        def durable() -> None:
            self.db.finalize_commit(txn)
            if self._measuring():
                self.result.commits += 1
                self.result.commits_by_type[client.name] = (
                    self.result.commits_by_type.get(client.name, 0) + 1
                )
                self.result.response_time_sum += self.now - client.started_at
            self._next(client)

        if self.config.commit_flush and has_writes:
            self._log.submit(durable)
        else:
            durable()

    def _finish_aborted(self, client: _Client, reason: str) -> None:
        if self._measuring():
            bucket = reason if reason in self.result.aborts else "aborted"
            self.result.aborts[bucket] += 1
        self._next(client)

    def _next(self, client: _Client) -> None:
        when = self.now + self.config.think_time
        if when > self._horizon:
            return
        self.schedule_at(when, lambda: self._begin_transaction(client))


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
