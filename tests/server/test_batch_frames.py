"""Wire batching.

The ``batch`` frame (many id-tagged requests per read) and the
pipelined client's automatic send-queue coalescing.
"""

from __future__ import annotations

import asyncio
import socket
import threading

import pytest

from repro.client import PipelinedClient
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.server import ReproServer
from repro.server.protocol import read_frame_sock, send_frame_sock

from tests.server.test_server import run_with_server


@pytest.fixture
def server_db():
    db = Database(EngineConfig(record_history=True))
    return db


class TestBatchFrames:
    def test_batch_dispatches_every_inner_frame(self, server_db):
        server_db.create_table("t")

        async def body(server):
            def blocking():
                sock = socket.create_connection(("127.0.0.1", server.port))
                frames = [
                    {"op": "ping", "id": n} for n in range(5)
                ]
                send_frame_sock(sock, {"op": "batch", "frames": frames})
                got = {read_frame_sock(sock)["id"] for _ in range(5)}
                sock.close()
                return got

            return await asyncio.get_running_loop().run_in_executor(
                None, blocking
            )

        assert run_with_server(server_db, body) == {0, 1, 2, 3, 4}

    def test_batch_without_ids_rejected(self, server_db):
        async def body(server):
            def blocking():
                sock = socket.create_connection(("127.0.0.1", server.port))
                send_frame_sock(
                    sock, {"op": "batch", "frames": [{"op": "ping"}]}
                )
                reply = read_frame_sock(sock)
                sock.close()
                return reply

            return await asyncio.get_running_loop().run_in_executor(
                None, blocking
            )

        reply = run_with_server(server_db, body)
        assert reply["ok"] is False and reply["error"] == "ProtocolError"

    def test_batch_with_non_list_frames_rejected(self, server_db):
        async def body(server):
            def blocking():
                sock = socket.create_connection(("127.0.0.1", server.port))
                send_frame_sock(sock, {"op": "batch", "frames": "nope"})
                reply = read_frame_sock(sock)
                sock.close()
                return reply

            return await asyncio.get_running_loop().run_in_executor(
                None, blocking
            )

        assert run_with_server(server_db, body)["ok"] is False

    def test_nested_batch_rejected_per_frame(self, server_db):
        async def body(server):
            def blocking():
                sock = socket.create_connection(("127.0.0.1", server.port))
                send_frame_sock(sock, {
                    "op": "batch",
                    "frames": [{"op": "batch", "frames": [], "id": 7}],
                })
                reply = read_frame_sock(sock)
                sock.close()
                return reply

            return await asyncio.get_running_loop().run_in_executor(
                None, blocking
            )

        reply = run_with_server(server_db, body)
        assert reply["ok"] is False and reply["id"] == 7


class TestClientCoalescing:
    def test_submit_many_sends_one_batch_frame(self, server_db):
        async def body(server):
            def blocking():
                link = PipelinedClient(port=server.port)
                slots = link.submit_many([{"op": "ping"}] * 8)
                for slot in slots:
                    assert link.result(slot)["ok"]
                stats = dict(link.stats)
                link.close()
                return stats

            return await asyncio.get_running_loop().run_in_executor(
                None, blocking
            )

        stats = run_with_server(server_db, body)
        assert stats["frames_sent"] == 1
        assert stats["batches_sent"] == 1
        assert stats["coalesced_ops"] == 8

    def test_lone_submit_goes_plain(self, server_db):
        async def body(server):
            def blocking():
                link = PipelinedClient(port=server.port)
                assert link.ping()["ok"]
                stats = dict(link.stats)
                link.close()
                return stats

            return await asyncio.get_running_loop().run_in_executor(
                None, blocking
            )

        stats = run_with_server(server_db, body)
        assert stats["frames_sent"] == 1
        assert stats["batches_sent"] == 0

    def test_concurrent_submitters_still_all_answered(self, server_db):
        """Many threads submitting at once: coalescing is opportunistic,
        correctness is not — every submission gets its reply."""
        async def body(server):
            def blocking():
                link = PipelinedClient(port=server.port)
                replies = []
                lock = threading.Lock()

                def hammer():
                    for _ in range(20):
                        reply = link.call({"op": "ping"})
                        with lock:
                            replies.append(reply["ok"])

                workers = [
                    threading.Thread(target=hammer) for _ in range(6)
                ]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join()
                stats = dict(link.stats)
                link.close()
                return replies, stats

            return await asyncio.get_running_loop().run_in_executor(
                None, blocking
            )

        replies, stats = run_with_server(server_db, body)
        assert len(replies) == 120 and all(replies)
        assert stats["frames_sent"] >= 1

    def test_transactions_over_batched_link(self, server_db):
        """Real ops (not pings) through submit_many: a full write
        transaction per inner frame, every reply settled correctly."""
        server_db.create_table("t")

        async def body(server):
            def blocking():
                link = PipelinedClient(port=server.port)
                gtids = [101, 102, 103]
                for gtid in gtids:
                    slots = link.submit_many([
                        {"op": "begin", "txn": gtid, "isolation": "ssi"},
                    ])
                    link.result(slots[0])
                slots = link.submit_many([
                    {"op": "put", "txn": gtid, "table": "t",
                     "key": f"k{gtid}", "value": gtid}
                    for gtid in gtids
                ])
                for slot in slots:
                    link.result(slot)
                slots = link.submit_many([
                    {"op": "commit", "txn": gtid} for gtid in gtids
                ])
                for slot in slots:
                    link.result(slot)
                link.close()

            await asyncio.get_running_loop().run_in_executor(None, blocking)

        run_with_server(server_db, body)
        check = server_db.begin("si")
        for gtid in (101, 102, 103):
            assert check.read("t", f"k{gtid}") == gtid
        check.commit()
