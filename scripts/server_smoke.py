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

With ``--wal`` the server runs as ``python -m repro.server --wal`` does:
on a database recovered from a write-ahead log file that every commit is
flushed to.  The smoke runs traffic, stops the server, restarts it from
the log, runs more traffic and restarts it again, and also checks that
each restart recovers exactly the committed state the stopped server
left (so every acknowledged commit is present) and that no transaction
id is logged twice.

Exit status 0 on success, 1 on any violation — wired into CI next to the
latch-discipline lint.

Usage::

    PYTHONPATH=src python scripts/server_smoke.py [--connections 64] [--wal]
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import tempfile

from repro.client import AsyncClient
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.errors import TransactionAbortedError
from repro.server import ReproServer
from repro.server.__main__ import open_database
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


def fresh_database() -> Database:
    db = Database(EngineConfig(record_history=True))
    db.create_table("acct")
    db.load("acct", [(i, 1000) for i in range(ACCOUNTS)])
    return db


def durable_database(wal_path: str) -> Database:
    """The database ``python -m repro.server --wal`` would serve; on an
    empty log the accounts are put in by one logged transaction, since a
    bulk load is not logged."""
    db = open_database(EngineConfig(record_history=True), wal_path)
    if db.wal.last_lsn == 0:
        db.create_table("acct")
        with db.begin("ssi") as txn:
            for i in range(ACCOUNTS):
                txn.write("acct", i, 1000)
    return db


async def run_smoke(db: Database, connections: int) -> dict:
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
    return tallies


def committed_state(db: Database) -> dict:
    """Every key's newest committed version: (value, commit timestamp)."""
    table = db.table("acct")
    state = {}
    for chunk in table.scan_chunks(None, None):
        for key, chain in chunk:
            version = chain.latest()
            state[key] = (version.value, version.commit_ts)
    return state


def check_run(db: Database, tallies: dict) -> list[str]:
    """The checks every run must pass; returns the problems found."""
    connections = tallies["connections"]
    expected = connections * TXNS_PER_CONNECTION
    total = tallies["commits"] + tallies["aborts"]
    print(f"{connections} connections: "
          f"{tallies['commits']} commits, {tallies['aborts']} aborts")
    # Report only: log records appended and flushes run (commits per
    # fsync), when the database has a write-ahead log.
    wal = db.metrics.snapshot()["counters"].get("wal")
    if wal is not None:
        print("wal:", wal)

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
    return problems


def durable_runs(connections: int, wal_path: str) -> list[str]:
    """Traffic, stop, restart from the log; traffic, stop, restart."""
    problems = []
    acknowledged = 1  # the setup transaction
    db = durable_database(wal_path)
    for restart in (1, 2):
        tallies = asyncio.run(run_smoke(db, connections))
        acknowledged += tallies["commits"]
        problems += check_run(db, tallies)
        left = committed_state(db)
        db.wal.close()
        db = durable_database(wal_path)
        if committed_state(db) != left:
            problems.append(f"restart {restart}: recovered state differs "
                            "from the state the stopped server committed")
    logged = db.wal.committed_txn_ids()
    if len(logged) != acknowledged:
        problems.append(f"{len(logged)} commits logged, "
                        f"{acknowledged} acknowledged")
    if len(set(logged)) != len(logged):
        problems.append("a transaction id is logged twice")
    else:
        print(f"log holds all {acknowledged} acknowledged commits "
              "across two restarts")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--connections", type=int, default=64)
    parser.add_argument("--wal", action="store_true",
                        help="serve from a write-ahead log and restart from it")
    args = parser.parse_args(argv)

    if args.wal:
        with tempfile.TemporaryDirectory() as directory:
            problems = durable_runs(args.connections,
                                    os.path.join(directory, "smoke.wal"))
    else:
        db = fresh_database()
        problems = check_run(db, asyncio.run(run_smoke(db, args.connections)))

    if problems:
        print("\nserver smoke FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("server smoke passed: clean shutdown, clean lock table")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
