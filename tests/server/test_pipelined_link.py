"""The pipelined link: many outstanding calls on one connection, each
reply matched back to its caller by id."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.client import PipelinedClient
from repro.engine.config import EngineConfig
from repro.engine.database import Database

from tests.server.test_server import run_with_server


@pytest.fixture
def server_db():
    db = Database(EngineConfig(record_history=True))
    return db


class TestPipelinedLink:
    def test_concurrent_submitters_still_all_answered(self, server_db):
        """Many threads submitting at once on one link: every
        submission gets its own reply."""
        async def body(server):
            def blocking():
                replies = []
                lock = threading.Lock()

                def hammer():
                    for _ in range(20):
                        reply = link.result(link.submit({"op": "ping"}))
                        with lock:
                            replies.append(reply["ok"])

                with PipelinedClient(port=server.port) as link:
                    workers = [
                        threading.Thread(target=hammer) for _ in range(6)
                    ]
                    for w in workers:
                        w.start()
                    for w in workers:
                        w.join()
                return replies

            return await asyncio.get_running_loop().run_in_executor(
                None, blocking
            )

        replies = run_with_server(server_db, body)
        assert len(replies) == 120 and all(replies)

    def test_transactions_multiplexed_through_start(self, server_db):
        """Three gtid transactions in flight on one link: each step is
        sent to all three before any reply is collected."""
        server_db.create_table("t")
        gtids = [101, 102, 103]

        async def body(server):
            def blocking():
                with PipelinedClient(port=server.port) as link:
                    for step in (
                        lambda gtid: link.start("begin", "ssi", txn=gtid),
                        lambda gtid: link.start(
                            "put", "t", f"k{gtid}", gtid, txn=gtid),
                        lambda gtid: link.start("commit", txn=gtid),
                    ):
                        waiters = [step(gtid) for gtid in gtids]
                        for wait in waiters:
                            wait()

            await asyncio.get_running_loop().run_in_executor(None, blocking)

        run_with_server(server_db, body)
        check = server_db.begin("si")
        for gtid in gtids:
            assert check.read("t", f"k{gtid}") == gtid
        check.commit()
