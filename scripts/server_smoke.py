#!/usr/bin/env python
"""CI smoke test for the wire-protocol server (PR 7).

Starts an in-process :class:`repro.server.ReproServer` on an ephemeral
port, drives 64 concurrent client connections — half at ``si``, half at
``ssi`` — through a contended smallbank-style transfer mix, then checks:

* every connection completed its transactions (aborts are expected
  outcomes under contention, protocol/engine errors are not),
* the recorded history is serializable for the ssi population (checked
  via the MVSG oracle over the full committed history),
* after a clean shutdown the lock table is empty: no granted rows, no
  owners, no waiters, no SIREAD sentinels, and
* the server stops with no connection or session left behind.

Exit status 0 on success, 1 on any violation — wired into CI next to the
latch-discipline lint.

Usage::

    PYTHONPATH=src python scripts/server_smoke.py [--connections 64]
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.client import AsyncClient
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.errors import TransactionAbortedError
from repro.server import ReproServer
from repro.sgt.checker import check_serializable

ACCOUNTS = 64
TXNS_PER_CONNECTION = 8


async def client_task(port: int, index: int, level: str,
                      tallies: dict) -> None:
    client = await AsyncClient.connect(port=port)
    try:
        for round_ in range(TXNS_PER_CONNECTION):
            src = (index + round_) % ACCOUNTS
            dst = (index * 7 + round_ + 1) % ACCOUNTS
            if src == dst:
                dst = (dst + 1) % ACCOUNTS
            try:
                await client.begin(level)
                a = await client.read("acct", src)
                b = await client.read("acct", dst)
                await client.put("acct", src, a - 1)
                await client.put("acct", dst, b + 1)
                await client.commit()
                tallies["commits"] += 1
            except TransactionAbortedError:
                tallies["aborts"] += 1
    finally:
        await client.close()


async def run_smoke(connections: int) -> tuple[Database, dict]:
    db = Database(EngineConfig(record_history=True))
    db.create_table("acct")
    db.load("acct", [(i, 1000) for i in range(ACCOUNTS)])
    server = ReproServer(db)
    await server.start()
    tallies = {"commits": 0, "aborts": 0}
    try:
        await asyncio.gather(*(
            client_task(server.port, index,
                        "ssi" if index % 2 == 0 else "si", tallies)
            for index in range(connections)
        ))
    finally:
        await server.stop()
    tallies["connections"] = connections
    tallies["open_sessions"] = server.scheduler.open_sessions
    tallies["server_connections"] = server.connections
    return db, tallies


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--connections", type=int, default=64)
    args = parser.parse_args(argv)

    db, tallies = asyncio.run(run_smoke(args.connections))
    expected = args.connections * TXNS_PER_CONNECTION
    total = tallies["commits"] + tallies["aborts"]
    print(f"{args.connections} connections: "
          f"{tallies['commits']} commits, {tallies['aborts']} aborts")
    # Report only: commits that overlapped a leader rode follower groups.
    print("group_commit:", db.metrics.snapshot()["counters"]["group_commit"])

    problems = []
    if total != expected:
        problems.append(f"lost transactions: {total} finished, "
                        f"{expected} submitted")
    if tallies["commits"] == 0:
        problems.append("no transaction committed")
    if tallies["server_connections"] != 0:
        problems.append(f"{tallies['server_connections']} connections "
                        "still registered after shutdown")
    if tallies["open_sessions"] != 0:
        problems.append(f"{tallies['open_sessions']} sessions survived "
                        "shutdown")

    db.cleanup_suspended()
    residue = db.locks.residue()
    if any(residue.values()):
        problems.append(f"lock table dirty after shutdown: {residue}")

    report = check_serializable(db.history)
    if not report.serializable:
        problems.append(f"history not serializable: {report.describe()}")
    else:
        print(f"history serializable ({tallies['commits']} commits certified)")

    # money is conserved across every committed transfer
    with db.begin("si") as txn:
        balance = sum(value for _key, value in txn.scan("acct"))
    if balance != 1000 * ACCOUNTS:
        problems.append(f"invariant violated: balance {balance} != "
                        f"{1000 * ACCOUNTS}")

    if problems:
        print("\nserver smoke FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("server smoke passed: clean shutdown, clean lock table")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
