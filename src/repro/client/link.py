"""The blocking client: a pipelined link, many outstanding ops on one
connection.

Used one call at a time it is the plain synchronous client of scripts
and the tutorial (``begin``/``get``/``put``/``commit``... below, the
vocabulary of :data:`repro.server.protocol.WIRE_OPS`).  Strict
request/response would be too slow for a sharding coordinator that
must fan a PREPARE out to several shards and collect the votes in one
round trip, so :class:`PipelinedClient` tags every frame with an
``id`` (see :mod:`repro.server.protocol`), sends without waiting, and a
single receiver thread matches the (possibly out-of-order) replies back
to per-call slots.  Frames may also carry a ``txn`` global id, routing
them to the server-wide session for that distributed transaction, so
one link multiplexes every transaction the coordinator runs against a
shard.

**Coalescing** — submissions land in a send queue; whichever submitter
finds no active sender becomes the sender and drains the queue,
wrapping everything queued behind it into one ``batch`` frame (one
syscall, one length prefix, one server read).  Under contention the
batching is automatic and unbounded by timers: frames batch exactly
when they would otherwise have queued behind a peer's ``send``.  A
lone frame goes out plain — the idle round-trip path pays nothing.
``submit_many`` queues a whole list atomically, so a sharding
coordinator's same-shard PREPARE/COMMIT fan-out shares one frame
deterministically.

The server bounds in-flight frames per connection (``max_inbox``) by
not reading the socket when full; the link inherits that backpressure
naturally — the sender blocks in ``send`` once the kernel buffers fill.
"""

from __future__ import annotations

import itertools
import socket
import threading
from collections import deque
from typing import Any, Callable, Hashable, Iterable

from repro.client.errors import raise_reply
from repro.server.protocol import (
    FrameError,
    build_request,
    read_frame_sock,
    read_result,
    send_frame_sock,
)

__all__ = ["PipelinedClient", "PendingReply"]

#: most messages one sender drain will pack into a single batch frame —
#: bounds frame size and the latency a queued frame can accrue behind
#: an enormous batch.
_MAX_BATCH = 128


class PendingReply:
    """One in-flight call: an event the receiver thread fires plus the
    raw reply frame.  ``wait()`` parks the caller; the link's ``result``
    maps error replies onto the engine's exception classes."""

    __slots__ = ("_event", "reply")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reply: dict[str, Any] | None = None

    def wait(self, timeout: float | None = None) -> dict[str, Any] | None:
        self._event.wait(timeout)
        return self.reply

    def settle(self, reply: dict[str, Any] | None) -> None:
        self.reply = reply
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()


class PipelinedClient:
    """A thread-safe pipelined connection to a :class:`ReproServer`.
    Context-manager friendly::

        with PipelinedClient(port=7401) as client:
            client.begin("ssi")
            client.put("t", "k", 1)
            client.commit()

    The named operations and ``do(op, *args, txn=None)`` each make one
    round trip and return the op's result; ``start`` is ``do`` split in
    two (send now, collect later).  Underneath,
    ``submit(frame) -> PendingReply`` queues a raw frame for send and
    returns a waitable slot; ``result(slot)`` blocks and re-raises
    server errors as :mod:`repro.errors` classes (with ``.explanation``
    attached, see :mod:`repro.client.errors`); ``call(frame)`` is
    submit+result; ``submit_many(frames)`` queues a list in one step
    (one batch frame when more than one).  Any thread may submit; one
    receiver thread drains the socket.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7401) -> None:
        self._sock = socket.create_connection((host, port))
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._send_lock = threading.Lock()
        self._table_lock = threading.Lock()
        self._pending: dict[int, PendingReply] = {}
        self._sendq: deque[dict[str, Any]] = deque()
        self._sender_active = False
        self._ids = itertools.count(1)
        self._closed = False
        self._recv_error: BaseException | None = None
        #: send-side telemetry: how much the queue actually coalesced.
        self.stats = {"frames_sent": 0, "batches_sent": 0, "coalesced_ops": 0}
        self._receiver = threading.Thread(
            target=self._recv_loop, name=f"link-{host}:{port}", daemon=True
        )
        self._receiver.start()

    # --------------------------------------------------------- sending

    def submit(self, frame: dict[str, Any]) -> PendingReply:
        """Queue ``frame`` for send with a fresh id; return its slot."""
        return self._enqueue([frame])[0]

    def submit_many(self, frames: Iterable[dict[str, Any]]) -> list[PendingReply]:
        """Queue several frames in one step — they share a batch frame
        (when more than one), so a fan-out of same-shard ops costs one
        wire frame.  Returns slots in argument order."""
        return self._enqueue(list(frames))

    def _enqueue(self, frames: list[dict[str, Any]]) -> list[PendingReply]:
        slots = []
        with self._table_lock:
            if self._closed:
                raise ConnectionError("pipelined link is closed")
            for frame in frames:
                message = dict(frame)
                message["id"] = next(self._ids)
                slot = PendingReply()
                self._pending[message["id"]] = slot
                self._sendq.append(message)
                slots.append(slot)
            if self._sender_active or not self._sendq:
                return slots
            self._sender_active = True
        # This thread is now the sender: drain until the queue is empty.
        # Frames submitted by other threads meanwhile ride its batches.
        self._drain_sendq()
        return slots

    def _drain_sendq(self) -> None:
        while True:
            with self._table_lock:
                if not self._sendq:
                    self._sender_active = False
                    return
                batch = []
                while self._sendq and len(batch) < _MAX_BATCH:
                    batch.append(self._sendq.popleft())
            if len(batch) == 1:
                message = batch[0]
            else:
                message = {"op": "batch", "frames": batch}
            try:
                with self._send_lock:
                    send_frame_sock(self._sock, message)
            except BaseException as error:
                # The send failed: settle this batch's slots so their
                # waiters see the error, hand the sender role back, and
                # surface the failure to whoever was driving the drain.
                with self._table_lock:
                    self._sender_active = False
                    stranded = [
                        self._pending.pop(frame["id"], None) for frame in batch
                    ]
                self._recv_error = self._recv_error or error
                for slot in stranded:
                    if slot is not None:
                        slot.settle(None)
                raise
            self.stats["frames_sent"] += 1
            if len(batch) > 1:
                self.stats["batches_sent"] += 1
                self.stats["coalesced_ops"] += len(batch)

    def result(self, slot: PendingReply) -> dict[str, Any]:
        """Wait for a slot and return its reply, raising server errors
        as engine exception classes."""
        reply = slot.wait()
        if reply is None:
            raise self._recv_error or ConnectionError(
                "pipelined link closed before the reply arrived"
            )
        if not reply.get("ok"):
            raise_reply(reply)
        return reply

    def call(self, frame: dict[str, Any]) -> dict[str, Any]:
        return self.result(self.submit(frame))

    # ------------------------------------------------------ vocabulary

    def start(self, op: str, *args: Any, txn: Any = None) -> Callable[[], Any]:
        """Send any :data:`WIRE_OPS` op without waiting; calling the
        returned waiter blocks for the reply and returns the op's result
        (``txn`` addresses a distributed transaction's session)."""
        slot = self.submit(build_request(op, args, txn))
        return lambda: read_result(op, self.result(slot))

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
        try:
            while True:
                reply = read_frame_sock(self._sock)
                if reply is None:
                    break
                slot = None
                with self._table_lock:
                    slot = self._pending.pop(reply.get("id"), None)
                if slot is not None:
                    slot.settle(reply)
        except (OSError, ValueError, FrameError) as error:
            # ValueError: reads racing close() on some platforms.
            self._recv_error = error
        finally:
            with self._table_lock:
                self._closed = True
                stranded = list(self._pending.values())
                self._pending.clear()
            for slot in stranded:
                slot.settle(None)

    # --------------------------------------------------------- closing

    def close(self) -> None:
        with self._table_lock:
            if self._closed and not self._receiver.is_alive():
                return
            self._closed = True
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
