"""Clients for the wire protocol: one per transport.

:class:`AsyncClient` rides an asyncio event loop (one coroutine per
connection; thousands of connections per loop — this is what the
connection-count benchmark drives).  :class:`PipelinedClient`
(:mod:`repro.client.link`) is the blocking one: a plain socket for
scripts, tests and the tutorial, and — because any thread may have a
call in flight on it — the shard coordinator's link.

Both speak the vocabulary of
:data:`repro.server.protocol.WIRE_OPS` and map error frames back onto
the :mod:`repro.errors` hierarchy (:mod:`repro.client.errors`).
"""

from __future__ import annotations

import asyncio
from typing import Any, Hashable

from repro.client.errors import ServerError, raise_reply
from repro.client.link import PipelinedClient
from repro.server.protocol import (
    FrameError,
    build_request,
    encode_frame,
    read_frame_async,
    read_result,
)

__all__ = ["AsyncClient", "PipelinedClient", "ServerError"]


class AsyncClient:
    """One wire-protocol connection on the running event loop.

    Usage::

        client = await AsyncClient.connect("127.0.0.1", 7401)
        await client.begin("ssi")
        value = await client.get("accounts", "x")
        await client.put("accounts", "x", value + 1)
        await client.commit()
        await client.close()

    One outstanding request per connection (the protocol is
    request/response); concurrency comes from many connections.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str = "127.0.0.1",
                      port: int = 7401) -> "AsyncClient":
        """Open a connection."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _call(self, op: str, *args: Any) -> Any:
        """One round trip: ``op``'s request out, its result back."""
        self._writer.write(encode_frame(build_request(op, args)))
        await self._writer.drain()
        reply = await read_frame_async(self._reader)
        if reply is None:
            raise FrameError("server closed the connection")
        if not reply.get("ok"):
            raise_reply(reply)
        return read_result(op, reply)

    async def ping(self) -> dict[str, Any]:
        return await self._call("ping")

    async def begin(self, isolation: str = "ssi", read_only: bool = False,
                    deferrable: bool = False) -> int:
        return await self._call("begin", isolation, read_only, deferrable)

    async def read(self, table: str, key: Hashable) -> Any:
        return await self._call("read", table, key)

    async def get(self, table: str, key: Hashable, default: Any = None) -> Any:
        return await self._call("get", table, key, default)

    async def read_for_update(self, table: str, key: Hashable) -> Any:
        return await self._call("read_for_update", table, key)

    async def put(self, table: str, key: Hashable, value: Any) -> None:
        await self._call("put", table, key, value)

    async def insert(self, table: str, key: Hashable, value: Any) -> None:
        await self._call("insert", table, key, value)

    async def delete(self, table: str, key: Hashable) -> None:
        await self._call("delete", table, key)

    async def scan(self, table: str, lo: Hashable | None = None,
                   hi: Hashable | None = None) -> list[tuple[Any, Any]]:
        return await self._call("scan", table, lo, hi)

    async def index_scan(self, index: str, lo: Hashable | None = None,
                         hi: Hashable | None = None) -> list[tuple[Any, Any]]:
        return await self._call("index_scan", index, lo, hi)

    async def index_lookup(self, index: str, key: Hashable) -> list[Any]:
        return await self._call("index_lookup", index, key)

    async def commit(self) -> None:
        await self._call("commit")

    async def abort(self) -> None:
        await self._call("abort")

    async def create_table(self, table: str) -> None:
        await self._call("create_table", table)

    async def load(self, table: str, rows) -> None:
        await self._call("load", table, list(rows))

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
