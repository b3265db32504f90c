"""Where the server runs a session's operation.

An operation for an idle session runs inline on the event loop inside
``ReproServer._dispatch``; an operation that has to wait (a lock, a
safe-snapshot verdict) suspends, and its retry is
scheduled back onto the same loop.  A wait's deadline duties — the
lock timeout and periodic deadlock sweeps — are loop timers.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.client import AsyncClient, PipelinedClient
from repro.engine.config import DeadlockMode, EngineConfig
from repro.engine.database import Database
from repro.errors import DeadlockError, LockTimeoutError
from repro.server.protocol import build_request
from repro.session import SessionScheduler

from tests.server.test_server import run_with_server

#: the engine calls a SmallBank-style transaction makes through a session
ENGINE_CALLS = ("begin", "read", "get", "write", "commit")


@pytest.fixture
def db():
    db = Database(EngineConfig(record_history=True))
    db.create_table("t")
    db.load("t", [("x", 0)])
    return db


@pytest.fixture
def seen(monkeypatch):
    """The thread behind every engine call (by name) and every wake of
    a suspended session's driver."""
    record = {"engine": [], "enqueue": []}
    for name in ENGINE_CALLS:
        def recording(*args, _original=getattr(Database, name), _name=name,
                      **kwargs):
            record["engine"].append((_name, threading.current_thread()))
            return _original(*args, **kwargs)

        monkeypatch.setattr(Database, name, recording)
    enqueue = SessionScheduler._enqueue

    def recording_enqueue(self, session):
        record["enqueue"].append(threading.current_thread())
        return enqueue(self, session)

    monkeypatch.setattr(SessionScheduler, "_enqueue", recording_enqueue)
    return record


async def until(predicate, timeout: float = 5.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.005)


def test_uncontended_transaction_runs_on_the_loop(db, seen):
    async def body(server):
        client = await AsyncClient.connect(port=server.port)
        seen["engine"].clear()
        await client.begin("ssi")
        value = await client.read("t", "x")
        assert await client.get("t", "y", "absent") == "absent"
        await client.put("t", "x", value + 1)
        await client.commit()
        await client.close()
        return threading.current_thread()

    loop_thread = run_with_server(db, body)
    assert {name for name, _ in seen["engine"]} == set(ENGINE_CALLS)
    assert {thread for _, thread in seen["engine"]} == {loop_thread}
    assert seen["enqueue"] == []
    assert db.begin("si").read("t", "x") == 1


def test_lock_wait_suspends_and_resumes_on_the_loop(db, seen):
    """A write-write wait parks the session, not the loop: a third
    connection is answered meanwhile, and once the holder commits the
    waiter's retry runs on the loop thread, like its first attempt."""

    async def body(server):
        holder = await AsyncClient.connect(port=server.port)
        waiter = await AsyncClient.connect(port=server.port)
        bystander = await AsyncClient.connect(port=server.port)
        await holder.begin("s2pl")
        await holder.put("t", "x", "holder")
        await waiter.begin("s2pl")
        seen["engine"].clear()
        waiting = asyncio.ensure_future(waiter.put("t", "x", "waiter"))
        await until(lambda: server.scheduler.suspended_sessions == 1)
        assert (await bystander.ping())["connections"] == 3
        assert not waiting.done()
        assert seen["enqueue"] == []
        await holder.commit()
        await asyncio.wait_for(waiting, timeout=10)
        await waiter.commit()
        for client in (holder, waiter, bystander):
            await client.close()
        return threading.current_thread()

    loop_thread = run_with_server(db, body)
    first, retry = [thread for name, thread in seen["engine"] if name == "write"]
    assert first is loop_thread and retry is loop_thread
    # One wake, made by the holder's commit as it released the lock.
    assert seen["enqueue"] == [loop_thread]
    assert db.begin("si").read("t", "x") == "waiter"
    assert not any(db.locks.residue().values())


def test_hot_key_waiters_resume_on_the_loop(db, seen):
    """Eight connections queue on one s2pl key: suspending them starts
    no thread, and every resumed retry runs on the loop thread."""
    waiters = 8

    async def body(server):
        holder = await AsyncClient.connect(port=server.port)
        clients = [await AsyncClient.connect(port=server.port)
                   for _ in range(waiters)]
        await holder.begin("s2pl")
        await holder.put("t", "x", -1)
        threads_before = threading.active_count()
        seen["engine"].clear()

        async def bump(client, index):
            await client.begin("s2pl")
            await client.put("t", "x", index)
            await client.commit()

        tasks = [asyncio.ensure_future(bump(client, index))
                 for index, client in enumerate(clients)]
        await until(lambda: server.scheduler.suspended_sessions == waiters)
        assert threading.active_count() == threads_before
        await holder.commit()
        await asyncio.wait_for(asyncio.gather(*tasks), timeout=10)
        assert threading.active_count() == threads_before
        for client in (holder, *clients):
            await client.close()
        return threading.current_thread()

    loop_thread = run_with_server(db, body)
    writes = [thread for name, thread in seen["engine"] if name == "write"]
    # each waiter's first attempt and its retry after the grant
    assert len(writes) >= 2 * waiters
    assert set(writes) == {loop_thread}
    assert set(seen["enqueue"]) == {loop_thread}
    assert not any(db.locks.residue().values())


def test_pipelined_frames_run_in_order(db):
    """Id-tagged frames queued behind a suspended one wait their turn:
    nothing overtakes the wait, and the queue drains in order."""

    async def body(server):
        loop = asyncio.get_running_loop()
        holder = await AsyncClient.connect(port=server.port)
        await holder.begin("s2pl")
        await holder.put("t", "x", "held")
        link = await loop.run_in_executor(
            None, lambda: PipelinedClient(port=server.port))
        try:
            frames = [build_request(op, args) for op, args in (
                ("begin", ("s2pl",)),
                ("put", ("t", "x", 1)),     # waits for the holder
                ("put", ("t", "x", 2)),
                ("get", ("t", "x")),
                ("commit", ()),
            )]
            futures = await loop.run_in_executor(
                None, lambda: [link.submit(frame) for frame in frames])
            await until(futures[0].done)
            await asyncio.sleep(0.05)
            assert not any(future.done() for future in futures[1:])
            await holder.commit()
            return await loop.run_in_executor(
                None, lambda: [link.result(future) for future in futures])
        finally:
            await holder.close()
            await loop.run_in_executor(None, link.close)

    replies = run_with_server(db, body)
    assert replies[3]["value"] == 2
    assert db.begin("si").read("t", "x") == 2


def test_lock_timeout_fires_on_the_loop():
    """A loop timer cancels an s2pl wait at its ``lock_timeout``
    deadline: the waiter gets a LockTimeoutError reply, the holder's
    connection carries on, and the lock table ends clean."""
    db = Database(EngineConfig(lock_timeout=0.05))
    db.create_table("t")
    db.load("t", [("x", 0)])

    async def body(server):
        holder = await AsyncClient.connect(port=server.port)
        waiter = await AsyncClient.connect(port=server.port)
        await holder.begin("s2pl")
        await holder.put("t", "x", "holder")
        await waiter.begin("s2pl")
        with pytest.raises(LockTimeoutError):
            await asyncio.wait_for(waiter.put("t", "x", "waiter"), timeout=10)
        assert await holder.read("t", "x") == "holder"
        await holder.commit()
        for client in (holder, waiter):
            await client.close()

    run_with_server(db, body)
    assert not any(db.locks.residue().values())
    assert db.begin("si").read("t", "x") == "holder"


def test_periodic_deadlock_sweep_fires_on_the_loop():
    """Two connections cross-wait under PERIODIC detection: no client
    thread exists to poll, so the suspended sessions' loop timers run
    the sweep, and exactly one side gets the deadlock abort."""
    db = Database(EngineConfig(deadlock_mode=DeadlockMode.PERIODIC))
    db.create_table("t")
    db.load("t", [("x", 0), ("y", 0)])

    async def body(server):
        a = await AsyncClient.connect(port=server.port)
        b = await AsyncClient.connect(port=server.port)
        await a.begin("s2pl")
        await b.begin("s2pl")
        await a.put("t", "x", "a")
        await b.put("t", "y", "b")
        outcomes = await asyncio.wait_for(asyncio.gather(
            a.put("t", "y", "a"), b.put("t", "x", "b"),
            return_exceptions=True), timeout=10)
        victims = [index for index, outcome in enumerate(outcomes)
                   if isinstance(outcome, DeadlockError)]
        assert len(victims) == 1
        assert outcomes[1 - victims[0]] is None
        await (b if victims == [0] else a).commit()
        for client in (a, b):
            await client.close()

    run_with_server(db, body)
    assert not any(db.locks.residue().values())
