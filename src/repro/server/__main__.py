"""``python -m repro.server`` — serve a database over TCP.

Example (see TUTORIAL 15)::

    PYTHONPATH=src python -m repro.server --port 7401 --trace
    PYTHONPATH=src python -m repro.server --wal /var/lib/repro/wal.log

Clients create tables and load rows over the wire (``create_table`` /
``load`` ops), so a bare server is immediately usable.  Every session
runs on the server's one event loop; there is no thread pool to size.

With ``--wal PATH`` every commit is flushed (fsync'd) to that log before
it is acknowledged, and a restart from the same path first replays the
log: every acknowledged commit is back.  Only committed writes are
logged — tables come back with their first logged write — so a durable
server refuses the bulk ``load`` op: put its rows in through
transactions.
"""

from __future__ import annotations

import argparse
import asyncio

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.server.core import ReproServer
from repro.wal import WriteAheadLog, replay


def open_database(config: EngineConfig, wal_path: str | None) -> Database:
    """A fresh database, or with ``wal_path`` the one its log recovers,
    logging on to the same file."""
    if wal_path is None:
        return Database(config)
    wal = WriteAheadLog.load(wal_path)
    return replay(wal, base=Database(config, wal=wal))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repro SSI wire-protocol server")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7401)
    parser.add_argument("--trace", action="store_true",
                        help="enable event tracing (abort explanations on the wire)")
    parser.add_argument("--lock-timeout", type=float, default=None,
                        help="engine lock wait timeout in seconds")
    parser.add_argument("--wal", metavar="PATH", default=None,
                        help="write-ahead log file: recover from it on start, "
                             "flush every commit to it")
    args = parser.parse_args(argv)

    db = open_database(EngineConfig(lock_timeout=args.lock_timeout), args.wal)
    if args.trace:
        db.enable_tracing()
    server = ReproServer(db, args.host, args.port)

    async def run() -> None:
        await server.start()
        print(f"repro server listening on {server.host}:{server.port}", flush=True)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()
            if db.wal is not None:
                db.wal.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
