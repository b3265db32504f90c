"""The blocking client: a pipelined link, many outstanding ops on one
connection.

Used one call at a time it is the plain synchronous client of scripts
and the tutorial (``begin``/``get``/``put``/``commit``... below, the
vocabulary of :data:`repro.server.protocol.WIRE_OPS`).  Strict
request/response would be too slow for a sharding coordinator that
must fan a PREPARE out to several shards and collect the votes in one
round trip, so :class:`PipelinedClient` tags every frame with an
``id`` (see :mod:`repro.server.protocol`), sends it at once under one
send lock, and a single receiver thread matches the (possibly
out-of-order) replies back to per-call futures.  Frames may also carry
a ``txn`` global id, routing them to the server-wide session for that
distributed transaction, so one link multiplexes every transaction the
coordinator runs against a shard.

The server bounds in-flight frames per connection
(:data:`repro.server.core.MAX_INBOX`) by not reading the socket when
full; the link inherits that backpressure naturally — a sender blocks
in ``send`` once the kernel buffers fill.
"""

from __future__ import annotations

import itertools
import socket
import threading
from concurrent.futures import Future
from typing import Any, Callable, Hashable

from repro.client.errors import raise_reply
from repro.server.protocol import (
    FrameError,
    build_request,
    read_frame_sock,
    read_result,
    send_frame_sock,
)

__all__ = ["PipelinedClient"]


class PipelinedClient:
    """A thread-safe pipelined connection to a :class:`ReproServer`.
    Context-manager friendly::

        with PipelinedClient(port=7401) as client:
            client.begin("ssi")
            client.put("t", "k", 1)
            client.commit()

    The named operations and ``do(op, *args, txn=None)`` each make one
    round trip and return the op's result; ``start`` is ``do`` split in
    two (send now, collect later).  Underneath, ``submit(frame)`` sends
    a raw frame and returns a :class:`~concurrent.futures.Future` of its
    reply; ``result(future)`` blocks and re-raises server errors as
    :mod:`repro.errors` classes (with ``.explanation`` attached, see
    :mod:`repro.client.errors`).  Any thread may submit; one receiver
    thread drains the socket.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7401) -> None:
        self._sock = socket.create_connection((host, port))
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        #: serialises sends and guards ``_closed``; ``_pending`` gains
        #: entries only under it, so the receiver's final drain is complete.
        self._send_lock = threading.Lock()
        self._pending: dict[int, Future] = {}
        self._ids = itertools.count(1)
        self._closed = False
        self._receiver = threading.Thread(
            target=self._recv_loop, name=f"link-{host}:{port}", daemon=True
        )
        self._receiver.start()

    def submit(self, frame: dict[str, Any]) -> Future:
        """Send ``frame`` with a fresh id; return the future of its reply."""
        future: Future = Future()
        with self._send_lock:
            if self._closed:
                raise ConnectionError("pipelined link is closed")
            frame_id = next(self._ids)
            self._pending[frame_id] = future
            send_frame_sock(self._sock, {**frame, "id": frame_id})
        return future

    def result(self, future: Future) -> dict[str, Any]:
        """Wait for a reply, raising server errors as engine exception
        classes."""
        reply = future.result()
        if not reply.get("ok"):
            raise_reply(reply)
        return reply

    # ------------------------------------------------------ vocabulary

    def start(self, op: str, *args: Any, txn: Any = None) -> Callable[[], Any]:
        """Send any :data:`WIRE_OPS` op without waiting; calling the
        returned waiter blocks for the reply and returns the op's result
        (``txn`` addresses a distributed transaction's session)."""
        future = self.submit(build_request(op, args, txn))
        return lambda: read_result(op, self.result(future))

    def do(self, op: str, *args: Any, txn: Any = None) -> Any:
        """One round trip: ``start`` and wait."""
        return self.start(op, *args, txn=txn)()

    def ping(self) -> dict[str, Any]:
        return self.do("ping")

    def begin(self, isolation: str = "ssi", read_only: bool = False,
              deferrable: bool = False) -> int:
        return self.do("begin", isolation, read_only, deferrable)

    def read(self, table: str, key: Hashable) -> Any:
        return self.do("read", table, key)

    def get(self, table: str, key: Hashable, default: Any = None) -> Any:
        return self.do("get", table, key, default)

    def read_for_update(self, table: str, key: Hashable) -> Any:
        return self.do("read_for_update", table, key)

    def put(self, table: str, key: Hashable, value: Any) -> None:
        self.do("put", table, key, value)

    def insert(self, table: str, key: Hashable, value: Any) -> None:
        self.do("insert", table, key, value)

    def delete(self, table: str, key: Hashable) -> None:
        self.do("delete", table, key)

    def scan(self, table: str, lo: Hashable | None = None,
             hi: Hashable | None = None) -> list[tuple[Any, Any]]:
        return self.do("scan", table, lo, hi)

    def index_scan(self, index: str, lo: Hashable | None = None,
                   hi: Hashable | None = None) -> list[tuple[Any, Any]]:
        return self.do("index_scan", index, lo, hi)

    def index_lookup(self, index: str, key: Hashable) -> list[Any]:
        return self.do("index_lookup", index, key)

    def commit(self) -> None:
        self.do("commit")

    def abort(self) -> None:
        self.do("abort")

    def create_table(self, table: str) -> None:
        self.do("create_table", table)

    def load(self, table: str, rows) -> None:
        self.do("load", table, list(rows))

    # ------------------------------------------------------- receiving

    def _recv_loop(self) -> None:
        error: BaseException | None = None
        try:
            while (reply := read_frame_sock(self._sock)) is not None:
                future = self._pending.pop(reply.get("id"), None)
                if future is not None:
                    future.set_result(reply)
        except (OSError, ValueError, FrameError) as caught:
            # ValueError: reads racing close() on some platforms.
            error = caught
        finally:
            with self._send_lock:
                self._closed = True
                stranded, self._pending = self._pending, {}
            for future in stranded.values():
                lost = ConnectionError(
                    "pipelined link closed before the reply arrived")
                lost.__cause__ = error
                future.set_exception(lost)

    # --------------------------------------------------------- closing

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._receiver.join(timeout=5.0)
        self._sock.close()

    def __enter__(self) -> "PipelinedClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
