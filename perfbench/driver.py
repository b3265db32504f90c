"""The replay drivers: one deterministic embedded loop and one wire loop.

Every workload replays a fixed program sequence on a fresh database.  The
embedded driver is a single-threaded round robin owned by perfbench: C
logical clients take turns, one engine call per turn; a client whose call
raises ``LockWaitRequired`` is skipped until its request resolves; an
aborted transaction is counted and the client takes the next program
(closed loop, no think time, no retry).  One thread and a fixed sequence
give the identical interleaving, outcomes and counts in every replay.

The wire driver runs the same programs through ``AsyncClient`` connections
against an in-process ``ReproServer`` on the benchmark's own event loop.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import os
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any

import repro.wal
from repro import Database, EngineConfig
from repro.client import AsyncClient
from repro.errors import LockWaitRequired, TransactionAbortedError
from repro.server import ReproServer
from repro.sim import ops
from repro.wal import WriteAheadLog

from perfbench.spans import TXN, Tracer
from perfbench.workloads import Program, Workload

#: abort reasons that are outcomes of concurrency control or of the
#: program's own business rules; anything else is a failure
ABORT_OUTCOMES = frozenset({"conflict", "unsafe", "deadlock", "constraint"})

_COMMIT = object()


@dataclass(slots=True)
class Replay:
    """What one replay of the sequence measured and produced."""

    level: str
    setup_ns: int = 0
    wall_ns: int = 0
    #: when the k-th completion (commit or abort) happened, from replay start
    completions_ns: list[int] = field(default_factory=list)
    #: by sequence index: "commit", an abort reason, or "error:<type>"
    outcomes: list[str] = field(default_factory=list)
    #: by sequence index: latency of a committed transaction, else None
    latency_ns: list[int | None] = field(default_factory=list)
    #: sha1 over (index, outcome, program result) in completion order plus
    #: the engine's counters: equal digests mean equal executions
    digest: str = ""
    counters: dict = field(default_factory=dict)
    table_peak: int = 0
    #: the database, kept only when the caller asked for an audit
    db: Any = None
    recovered: Any = None

    @property
    def commits(self) -> int:
        return self.outcomes.count("commit")

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes
                   if outcome != "commit" and outcome not in ABORT_OUTCOMES)


class _Client:
    __slots__ = ("index", "txn", "program", "op", "request", "busy_ns",
                 "blocked_at", "result")

    def __init__(self) -> None:
        self.index = -1
        self.txn = None
        self.program = None
        self.op = None
        self.request = None
        self.busy_ns = 0
        self.blocked_at = 0
        self.result = None


def _open_database(workload: Workload, wal_path: str | None, history: bool):
    config = EngineConfig(record_history=True) if history else EngineConfig()
    if workload.durable:
        return Database(config, wal=WriteAheadLog(wal_path))
    return Database(config)


def _finish(replay: Replay, db: Database, digest, keep: bool) -> None:
    replay.counters = db.metrics.snapshot()["counters"]
    digest.update(repr(sorted(_flatten(replay.counters))).encode())
    replay.digest = digest.hexdigest()
    if keep:
        replay.db = db


def _flatten(tree: dict, prefix: str = ""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _flatten(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def replay_embedded(
    workload: Workload,
    programs: list[Program],
    level: str,
    wal_path: str | None = None,
    *,
    tracer: Tracer | None = None,
    audit: bool = False,
) -> Replay:
    """Replay ``programs`` once at ``level`` on a fresh database.

    ``audit`` turns history recording on and keeps the database (and, for
    a durable workload, a database recovered from the log file alone) for
    the caller to check; such a replay is not a timing sample.
    """
    try:
        return _replay_embedded(workload, programs, level, wal_path, tracer, audit)
    finally:
        if wal_path is not None and os.path.exists(wal_path):
            os.remove(wal_path)


def _replay_embedded(workload: Workload, programs: list[Program], level: str,
                     wal_path: str | None, tracer: Tracer | None,
                     audit: bool) -> Replay:
    count = len(programs)
    replay = Replay(level, outcomes=[""] * count, latency_ns=[None] * count)
    digest = hashlib.sha1()
    traced = tracer is not None
    gc.collect()

    root = tracer.begin("harness", "setup") if traced else None
    started = perf_counter_ns()
    db = _open_database(workload, wal_path, history=audit)
    workload.setup(db)
    replay.setup_ns = perf_counter_ns() - started
    if traced:
        tracer.end(root)
        tracer.mark("replay_start")
        root = tracer.begin("harness", "replay")

    apply_op, begin, commit = ops.apply_op, db.begin, db.commit
    table_size = db.locks.table_size
    outcomes, latency_ns = replay.outcomes, replay.latency_ns
    completions = replay.completions_ns
    ring = [_Client() for _ in range(min(workload.clients, count))]
    next_index = 0
    start = now = perf_counter_ns()

    while ring:
        progressed = False
        for client in tuple(ring):
            request = client.request
            if request is not None:
                if not request.resolved:
                    continue
                client.request = None
                client.busy_ns += now - client.blocked_at
            progressed = True
            outcome = None
            try:
                if client.txn is None:
                    if next_index == count:
                        ring.remove(client)
                        continue
                    client.index = index = next_index
                    next_index += 1
                    if traced:
                        TXN.set(index)
                    client.busy_ns = 0
                    client.program = programs[index].start()
                    client.txn = begin(level)
                    client.op = client.program.send(None)
                else:
                    if traced:
                        TXN.set(client.index)
                    if client.op is _COMMIT:
                        commit(client.txn)
                        outcome = "commit"
                    else:
                        value = apply_op(db, client.txn, client.op)
                        try:
                            client.op = client.program.send(value)
                        except StopIteration as stop:
                            client.result = stop.value
                            client.op = _COMMIT
            except LockWaitRequired as wait:
                client.request = wait.request
            except TransactionAbortedError as error:
                outcome = error.reason
            except Exception as error:  # noqa: BLE001 - counted as a failed transaction
                outcome = f"error:{type(error).__name__}"
                if client.txn is not None and client.txn.is_active:
                    db.abort(client.txn)
            previous, now = now, perf_counter_ns()
            client.busy_ns += now - previous
            if client.request is not None:
                client.blocked_at = now
            if outcome is not None:
                index = client.index
                outcomes[index] = outcome
                completions.append(now - start)
                if outcome == "commit":
                    latency_ns[index] = client.busy_ns
                else:
                    client.result = None
                digest.update(repr((index, outcome, client.result)).encode())
                client.txn = client.result = None
                if traced:
                    replay.table_peak = max(replay.table_peak, table_size())
        if not progressed:
            # One thread: if nobody could take a turn, nobody ever will.
            raise RuntimeError(
                f"{workload.name}: every client is blocked on a lock that "
                "never resolves")

    replay.wall_ns = now - start
    if traced:
        TXN.set(-1)
        tracer.end(root)
        tracer.mark("replay_end")
    if workload.durable and (audit or traced):
        replay.recovered = repro.wal.recover_database(WriteAheadLog.load(wal_path))
    _finish(replay, db, digest, keep=audit)
    return replay


# --------------------------------------------------------------------- wire


class _BusinessRollback(Exception):
    """A program asked for a rollback (SmallBank's business rules)."""


async def _apply_wire(client: AsyncClient, op) -> Any:
    """The wire twin of ``repro.sim.ops.apply_op`` for the descriptors
    SmallBank yields."""
    if isinstance(op, ops.Read):
        return await client.read(op.table, op.key)
    if isinstance(op, ops.Get):
        return await client.get(op.table, op.key, op.default)
    if isinstance(op, ops.ReadForUpdate):
        return await client.read_for_update(op.table, op.key)
    if isinstance(op, ops.Write):
        return await client.put(op.table, op.key, op.value)
    if isinstance(op, ops.Rollback):
        await client.abort()
        raise _BusinessRollback(op.message)
    raise TypeError(f"the wire driver cannot run {op!r}")


async def _replay_wire(workload: Workload, programs: list[Program], level: str,
                       tracer: Tracer | None, audit: bool) -> Replay:
    count = len(programs)
    replay = Replay(level, outcomes=[""] * count, latency_ns=[None] * count)
    outcomes, latency_ns = replay.outcomes, replay.latency_ns
    completions = replay.completions_ns
    digest = hashlib.sha1()
    traced = tracer is not None
    cursor = iter(range(count))
    start = 0

    async def run(client: AsyncClient) -> None:
        """One connection: take the next program, run it, repeat.  The
        latency is what the client sees, from sending ``begin`` to
        receiving the commit reply."""
        for index in cursor:
            if traced:
                TXN.set(index)
            result = None
            sent = perf_counter_ns()
            try:
                await client.begin(level)
                program = programs[index].start()
                try:
                    while True:
                        result = await _apply_wire(client, program.send(result))
                except StopIteration as stop:
                    result = stop.value
                await client.commit()
                outcome = "commit"
            except TransactionAbortedError as error:
                outcome, result = error.reason, None
            except _BusinessRollback:
                outcome, result = "constraint", None
            except Exception as error:  # noqa: BLE001 - malformed reply or dropped connection: a failed transaction
                outcome, result = f"error:{type(error).__name__}", None
            done = perf_counter_ns()
            outcomes[index] = outcome
            completions.append(done - start)
            if outcome == "commit":
                latency_ns[index] = done - sent
            digest.update(repr((index, outcome, result)).encode())
            if traced:
                replay.table_peak = max(replay.table_peak, db.locks.table_size())

    root = tracer.begin("harness", "setup") if traced else None
    started = perf_counter_ns()
    db = _open_database(workload, None, history=audit)
    workload.setup(db)
    server = ReproServer(db, workers=1)
    clients: list[AsyncClient] = []
    try:
        await server.start()
        for _ in range(workload.clients):
            clients.append(await AsyncClient.connect("127.0.0.1", server.port))
        replay.setup_ns = perf_counter_ns() - started
        if traced:
            tracer.end(root)
            tracer.mark("replay_start")
            # Opened in this task and closed in it: every other task's
            # steps in between run on the same thread, on top of it.
            root = tracer.begin("harness", "replay")
        start = perf_counter_ns()
        await asyncio.gather(*(run(client) for client in clients))
        replay.wall_ns = perf_counter_ns() - start
        if traced:
            TXN.set(-1)
            tracer.end(root)
            tracer.mark("replay_end")
    finally:
        await _shut_down(server, clients)
    _finish(replay, db, digest, keep=audit)
    return replay


async def _shut_down(server: ReproServer, clients: list[AsyncClient]) -> None:
    """Close the connections, let the server retire their sessions, stop
    it, and wait for its connection tasks: nothing of this replay may
    still run when the next one starts."""
    for client in clients:
        await client.close()
    deadline = perf_counter_ns() + 5_000_000_000
    while server.scheduler.open_sessions and perf_counter_ns() < deadline:
        await asyncio.sleep(0.001)
    await server.stop()
    others = asyncio.all_tasks() - {asyncio.current_task()}
    if others:
        _done, stuck = await asyncio.wait(others, timeout=5)
        if stuck:
            raise RuntimeError(f"{len(stuck)} server tasks outlived the replay")


def replay_wire(
    workload: Workload,
    programs: list[Program],
    level: str,
    loop: asyncio.AbstractEventLoop,
    *,
    tracer: Tracer | None = None,
    audit: bool = False,
) -> Replay:
    """Replay over loopback TCP: a fresh server, scheduler and connections
    per replay, all closed before this returns."""
    gc.collect()
    return loop.run_until_complete(
        _replay_wire(workload, programs, level, tracer, audit))
