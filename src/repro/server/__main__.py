"""``python -m repro.server`` — serve a fresh database over TCP.

Example (see TUTORIAL 15)::

    PYTHONPATH=src python -m repro.server --port 7401 --trace

Clients create tables and load rows over the wire (``create_table`` /
``load`` ops), so a bare server is immediately usable.  Every session
runs on the server's one event loop; there is no thread pool to size.
"""

from __future__ import annotations

import argparse
import asyncio

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.server.core import ReproServer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repro SSI wire-protocol server")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7401)
    parser.add_argument("--trace", action="store_true",
                        help="enable event tracing (abort explanations on the wire)")
    parser.add_argument("--lock-timeout", type=float, default=None,
                        help="engine lock wait timeout in seconds")
    args = parser.parse_args(argv)

    db = Database(EngineConfig(lock_timeout=args.lock_timeout))
    if args.trace:
        db.enable_tracing()
    server = ReproServer(db, args.host, args.port)

    async def run() -> None:
        await server.start()
        print(f"repro server listening on {server.host}:{server.port}")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
