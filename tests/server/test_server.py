"""Wire-protocol server: framing, error mapping, connection lifecycle."""

from __future__ import annotations

import asyncio
import socket
import struct

import pytest

from repro.client import AsyncClient, PipelinedClient, ServerError
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.errors import (
    KeyNotFoundError,
    TransactionAbortedError,
    TransactionStateError,
    UnsafeError,
)
from repro.server import ReproServer
from repro.server.protocol import (
    MAX_FRAME,
    FrameError,
    decode_frame,
    encode_frame,
)


class TestFraming:
    def test_round_trip(self):
        frame = {"op": "put", "key": ["compound", 3], "value": {"n": 1.5}}
        assert decode_frame(encode_frame(frame)[4:]) == frame

    def test_rejects_non_dict(self):
        with pytest.raises(FrameError):
            decode_frame(b"[1, 2]")
        with pytest.raises(FrameError):
            decode_frame(b"not json")

    def test_rejects_oversized_header(self):
        async def read_it():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", MAX_FRAME + 1))
            from repro.server.protocol import read_frame_async
            return await read_frame_async(reader)

        with pytest.raises(FrameError):
            asyncio.run(read_it())

    def test_header_cut_short_is_not_a_clean_close(self):
        """A peer that closes after part of a header is a broken frame,
        as in the async reader, not a clean EOF; an empty close is."""
        from repro.server.protocol import read_frame_sock
        sender, receiver = socket.socketpair()
        with sender, receiver:
            sender.sendall(struct.pack(">I", 7)[:2])
            sender.close()
            with pytest.raises(FrameError, match="mid-header"):
                read_frame_sock(receiver)
        sender, receiver = socket.socketpair()
        with sender, receiver:
            sender.close()
            assert read_frame_sock(receiver) is None


@pytest.fixture
def server_db():
    db = Database(EngineConfig(record_history=True))
    db.enable_tracing()
    return db


def run_with_server(db, body):
    """Start a server on an ephemeral port, run ``body(server)`` in the
    event loop, always stop the server."""

    async def main():
        server = ReproServer(db)
        await server.start()
        try:
            return await body(server)
        finally:
            await server.stop()

    return asyncio.run(main())


class TestServer:
    def test_round_trip_and_admin(self, server_db):
        async def body(server):
            client = await AsyncClient.connect(port=server.port)
            info = await client.ping()
            assert info["server"] == "repro" and info["connections"] == 1
            await client.create_table("t")
            await client.load("t", [("a", 1), ("b", 2)])
            txn = await client.begin("ssi")
            assert isinstance(txn, int)
            assert await client.read("t", "a") == 1
            assert await client.get("t", "zzz", "fallback") == "fallback"
            await client.put("t", "a", 10)
            await client.insert("t", "c", 3)
            await client.delete("t", "b")
            assert await client.scan("t") == [["a", 10], ["c", 3]] or \
                await client.scan("t") == [("a", 10), ("c", 3)]
            await client.commit()
            await client.close()

        run_with_server(server_db, body)
        check = server_db.begin("si")
        assert check.read("t", "a") == 10
        check.commit()

    def test_error_frames_map_to_exception_classes(self, server_db):
        server_db.create_table("t")
        server_db.load("t", [("k", 0)])

        async def body(server):
            client = await AsyncClient.connect(port=server.port)
            await client.begin("ssi")
            with pytest.raises(KeyNotFoundError):
                await client.read("t", "missing")
            # connection (and transaction) survive a failed op
            assert await client.read("t", "k") == 0
            await client.abort()
            await client.close()

            def raw_frame(op):
                with PipelinedClient(port=server.port) as link:
                    return link.result(link.submit({"op": op}))

            # ``hello`` and ``batch`` included: there is no codec
            # handshake and no multi-request envelope to answer them
            loop = asyncio.get_running_loop()
            for op in ("no_such_op", "hello", "batch"):
                with pytest.raises(ServerError) as info:
                    await loop.run_in_executor(None, raw_frame, op)
                assert info.value.remote_error == "ProtocolError"
            assert (await loop.run_in_executor(None, raw_frame, "ping"))["ok"]

        run_with_server(server_db, body)

    def test_abort_reply_carries_reason_and_explanation(self, server_db):
        """An SSI dangerous-structure abort travels the wire with its
        machine-readable reason and the explain_abort payload."""
        server_db.create_table("t")
        server_db.load("t", [("x", 0), ("y", 0)])

        async def body(server):
            pivot = await AsyncClient.connect(port=server.port)
            t_in = await AsyncClient.connect(port=server.port)
            t_out = await AsyncClient.connect(port=server.port)
            await pivot.begin("ssi")
            await t_in.begin("ssi")
            await t_out.begin("ssi")
            await t_out.put("t", "y", 1)
            await pivot.read("t", "y")      # pivot -rw-> t_out
            await pivot.put("t", "x", 1)
            await t_in.read("t", "x")       # t_in -rw-> pivot
            await t_out.commit()
            await t_in.commit()
            with pytest.raises(TransactionAbortedError) as info:
                await pivot.commit()
            error = info.value
            assert error.reason == "unsafe"
            assert isinstance(error, UnsafeError)
            explanation = error.explanation
            assert explanation is not None
            assert explanation["reason"] == "unsafe"
            assert explanation["pivot"] is not None
            assert "dangerous structure" in explanation["text"]
            for client in (pivot, t_in, t_out):
                await client.close()

        run_with_server(server_db, body)

    def test_more_connections_than_workers(self, server_db):
        """16 concurrent transactional connections on one event-loop
        thread: suspension (not thread count) carries the concurrency."""
        server_db.create_table("acct")
        server_db.load("acct", [(i, 100) for i in range(4)])

        async def body(server):
            async def transfer(index):
                client = await AsyncClient.connect(port=server.port)
                try:
                    for _ in range(3):
                        try:
                            await client.begin("ssi")
                            src, dst = index % 4, (index + 1) % 4
                            a = await client.read("acct", src)
                            b = await client.read("acct", dst)
                            await client.put("acct", src, a - 1)
                            await client.put("acct", dst, b + 1)
                            await client.commit()
                        except TransactionAbortedError:
                            pass
                finally:
                    await client.close()

            await asyncio.gather(*(transfer(i) for i in range(16)))

        run_with_server(server_db, body)
        total = 0
        check = server_db.begin("si")
        for _key, value in check.scan("acct"):
            total += value
        check.commit()
        assert total == 400  # transfers conserve money
        residue = server_db.locks.residue()
        assert residue["granted"] == 0 and residue["waiters"] == 0

    def test_disconnect_releases_locks_and_wakes_nobody_forever(self, server_db):
        """A client that vanishes mid-transaction (even mid-lock-wait)
        must not strand engine state: its txn aborts, locks release."""
        server_db.create_table("t")
        server_db.load("t", [("x", 0)])

        async def body(server):
            holder = await AsyncClient.connect(port=server.port)
            await holder.begin("s2pl")
            await holder.read_for_update("t", "x")

            waiter = await AsyncClient.connect(port=server.port)
            await waiter.begin("s2pl")
            wait_task = asyncio.ensure_future(waiter.read_for_update("t", "x"))
            await asyncio.sleep(0.1)
            assert not wait_task.done()
            # the waiter vanishes while suspended on the lock queue
            await waiter.close()
            wait_task.cancel()
            try:
                await wait_task
            except (asyncio.CancelledError, Exception):
                pass
            # ...and the holder vanishes while owning the lock
            await holder.close()
            # a fresh connection can take the lock immediately
            fresh = await AsyncClient.connect(port=server.port)
            await fresh.begin("s2pl")
            assert await fresh.read_for_update("t", "x") == 0
            await fresh.commit()
            await fresh.close()

        run_with_server(server_db, body)
        assert not any(server_db.locks.residue().values())

    def test_second_begin_is_refused_and_orphans_nothing(self, server_db):
        """A ``begin`` while the connection's transaction is active is
        answered with an error and leaves that transaction as it was;
        closing the connection then aborts it and releases its locks."""
        server_db.create_table("t")

        async def body(server):
            client = await AsyncClient.connect(port=server.port)
            first = await client.begin("ssi")
            await client.put("t", 1, "x")
            with pytest.raises(TransactionStateError):
                await client.begin("ssi")
            assert server_db.find_transaction(first).is_active
            await client.close()
            deadline = asyncio.get_running_loop().time() + 5
            while server.scheduler.open_sessions:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.005)

        run_with_server(server_db, body)
        assert server_db.active_count() == 0
        residue = server_db.audit()
        assert (residue["granted"], residue["owners"]) == (0, 0), residue

    def test_blocking_client_from_thread(self, server_db):
        server_db.create_table("t")

        async def body(server):
            loop = asyncio.get_running_loop()

            def blocking_work():
                with PipelinedClient(port=server.port) as client:
                    client.begin("ssi")
                    client.insert("t", "k", "v")
                    client.commit()
                    client.begin("si", read_only=True)
                    assert client.read("t", "k") == "v"
                    client.commit()

            await loop.run_in_executor(None, blocking_work)

        run_with_server(server_db, body)

    def test_plain_commit_of_prepared_dtxn_is_refused(self, server_db):
        """A plain ``commit`` of a prepared distributed transaction is
        refused and leaves it prepared; ``commit_prepared`` then commits
        it and nothing stays in the shard's prepared set."""
        server_db.create_table("t")

        async def body(server):
            def blocking():
                with PipelinedClient(port=server.port) as link:
                    link.do("begin", "ssi", txn=7)
                    link.do("put", "t", "k", 1, txn=7)
                    link.do("prepare", txn=7)
                    with pytest.raises(TransactionStateError):
                        link.do("commit", txn=7)
                    link.do("commit_prepared", txn=7)
                    return link.do("audit")

            return await asyncio.get_running_loop().run_in_executor(
                None, blocking)

        assert run_with_server(server_db, body)["prepared"] == 0
        check = server_db.begin("si")
        assert check.read("t", "k") == 1
        check.commit()

    def test_deferrable_begin_over_the_wire(self, server_db):
        """A deferrable begin is answered at once; the first read
        suspends server-side until safe and its reply arrives only after
        the verdict — without pinning a thread or the event loop."""
        server_db.create_table("t")
        server_db.load("t", [(1, "a")])
        writer = server_db.begin("ssi")
        writer.read("t", 1)  # rw txn the monitor must watch

        async def body(server):
            client = await AsyncClient.connect(port=server.port)
            txn = await asyncio.wait_for(
                client.begin("ssi", deferrable=True), timeout=10)
            assert isinstance(txn, int)
            read_task = asyncio.ensure_future(client.read("t", 1))
            await asyncio.sleep(0.15)
            assert not read_task.done()  # still waiting on the verdict

            def release():
                writer.write("t", 1, "w")
                writer.commit()

            await asyncio.get_running_loop().run_in_executor(None, release)
            assert await asyncio.wait_for(read_task, timeout=10) == "a"
            reader = server_db.find_transaction(txn)
            assert not server_db.locks.holds_any_siread(reader)
            await client.commit()
            await client.close()

        run_with_server(server_db, body)
