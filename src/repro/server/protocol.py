"""Length-prefixed wire protocol shared by server and clients.

Framing: a 4-byte big-endian unsigned length followed by that many
bytes of JSON body (UTF-8, one object per frame).  There is one wire
format; nothing is negotiated, and one frame carries one request.

Requests are objects with an ``op`` field; :data:`WIRE_OPS` below is
the one operation reference — every request field, default and reply
field of every op is spelled there and nowhere else, and the four
helpers over it (:func:`build_request`, :func:`request_args`,
:func:`success_reply`, :func:`read_result`) are the only code that
knows a frame's shape.  Responses carry ``ok: true`` plus the op's
reply field, or ``ok: false`` plus ``error`` (exception class name),
``reason`` (abort classification, see
:data:`repro.errors.ABORT_REASONS`), ``message``, and — when
server-side tracing is enabled — an ``explanation`` object from
:meth:`repro.engine.database.Database.explain_abort`.

Two optional request fields change dispatch, not framing:

* ``id`` — any JSON value; opts the frame into pipelining.  The reply
  echoes it and may arrive out of order with other id-tagged replies on
  the same connection.  The server keeps at most ``MAX_INBOX`` of them
  in flight per connection (backpressure by not reading the socket).
* ``txn`` — a coordinator-assigned global transaction id; the frame is
  routed to a server-wide session for that distributed transaction
  rather than the connection's own session.  ``begin`` creates it,
  ``commit``/``abort``/``commit_prepared`` (or any abort error)
  retire it.  ``prepare`` returns the shard's rw-antidependency
  summary (``{"in", "out", "in_partner", "out_partner"}``) — the
  PREPARE vote of the cross-shard SSI protocol.

Keys and values must be representable in JSON; that is the wire
format's restriction, not the engine's.  JSON flattens tuples to
arrays, so every key-typed field (``key``/``lo``/``hi``/``rows`` in
requests; rows, keys and history in replies) is rebuilt list -> tuple
on arrival by :func:`wire_key` — composite keys travel; a *value* that
was a tuple arrives as a list.
"""

from __future__ import annotations

import asyncio
import json
import struct
import socket
from operator import itemgetter
from typing import Any, Callable, NamedTuple

__all__ = [
    "MAX_FRAME",
    "FrameError",
    "ProtocolError",
    "WIRE_OPS",
    "WireOp",
    "REQUIRED",
    "wire_key",
    "build_request",
    "request_args",
    "success_reply",
    "read_result",
    "encode_frame",
    "decode_frame",
    "read_frame_async",
    "read_frame_sock",
    "send_frame_sock",
]

_HEADER = struct.Struct(">I")

#: refuse frames above 16 MiB — a corrupt header otherwise asks the
#: server to allocate gigabytes.
MAX_FRAME = 16 * 1024 * 1024


class FrameError(Exception):
    """Malformed frame (oversized, truncated, or invalid body)."""


class ProtocolError(Exception):
    """A well-framed request the schema rejects: unknown op, missing
    required field.  Travels as the error name ``"ProtocolError"``."""


# ---------------------------------------------------------------- schema


def wire_key(value: Any) -> Any:
    """Rebuild a key as it left the sender: arrays back to tuples, all
    the way down (a scan's history key is a ``(lo, hi)`` pair of keys)."""
    if type(value) is list:
        return tuple([wire_key(item) for item in value])
    return value


def _wire_rows(rows: list) -> list[tuple[Any, Any]]:
    """``(key, value)`` rows: the key is rebuilt, the value is data."""
    return [(wire_key(key), value) for key, value in rows]


def _wire_keys(keys: list) -> list:
    """A list of keys — or of ``(entry, pk)`` pairs, which are two keys."""
    return [wire_key(key) for key in keys]


def _wire_history(txns: list[dict]) -> list[dict]:
    """``dump_history`` records: each op is ``(kind, table, key,
    version_ts, seen_keys)`` and both key slots are key-typed."""
    for txn in txns:
        txn["ops"] = [
            (kind, table, wire_key(key), version_ts, wire_key(seen))
            for kind, table, key, version_ts, seen in txn["ops"]
        ]
    return txns


#: request fields decoded on arrival, by name — a field means the same
#: thing in every op that carries it.
_ARRIVE: dict[str, Callable[[Any], Any]] = {
    "key": wire_key, "lo": wire_key, "hi": wire_key, "rows": _wire_rows,
    "read_only": bool, "deferrable": bool,
    "import_in": bool, "import_out": bool,
}

#: the ``default`` of a request field that has none
REQUIRED: Any = object()


class WireOp(NamedTuple):
    """One row of :data:`WIRE_OPS` (built by :func:`_op`)."""

    op: str
    #: positional request fields as ``(name, default, arrival decoder)``;
    #: ``default`` is ``REQUIRED`` for a field the request must carry
    fields: tuple[tuple[str, Any, Callable[[Any], Any] | None], ...]
    #: the field names alone, precomputed for :func:`build_request`
    names: tuple[str, ...]
    #: where the result travels: one reply field (the result is its
    #: value), a tuple of fields (the result is a dict of them), or
    #: None (a bare ``{"ok": true}``, the result is None)
    reply: str | tuple[str, ...] | None
    #: reply frame -> result, precomputed from ``reply`` and the op's
    #: result decoder (:func:`read_result` is one call of it)
    read: Callable[[dict[str, Any]], Any]
    #: ``"txn"`` runs on the session's open transaction and is part of
    #: every client's vocabulary; ``"2pc"`` also runs on a session but
    #: is spoken only between coordinator and shard; ``"admin"`` is
    #: answered by the server itself
    kind: str
    #: the Session / engine method behind a ``txn``/``2pc`` op
    method: str | None


def _reader(reply: str | tuple[str, ...] | None,
            decode: Callable[[Any], Any] | None) -> Callable[[dict], Any]:
    if reply is None:
        return lambda frame: None
    if isinstance(reply, tuple):
        return lambda frame: {name: frame[name] for name in reply}
    if decode is None:
        return itemgetter(reply)
    return lambda frame: decode(frame[reply])


def _op(op: str, *fields: Any, reply: str | tuple[str, ...] | None = None,
        decode=None, kind: str = "txn", method: str | None = None) -> WireOp:
    """A field is ``"name"`` (required) or ``("name", default)``."""
    parsed = tuple(
        (f, REQUIRED, _ARRIVE.get(f)) if isinstance(f, str)
        else (f[0], f[1], _ARRIVE.get(f[0]))
        for f in fields
    )
    if method is None and kind in ("txn", "2pc"):
        method = op
    return WireOp(op, parsed, tuple(f[0] for f in parsed), reply,
                  _reader(reply, decode), kind, method)


_RANGE = (("lo", None), ("hi", None))

#: The wire schema: op name -> request fields in positional order,
#: reply field, result decoder.  A ``txn`` op's positional fields are the
#: arguments of the same-named ``Session`` / ``Database`` method (after
#: the transaction) — except ``put``, the wire's name for the engine's
#: blind-upsert ``write``, which is recorded here and nowhere else.
WIRE_OPS: dict[str, WireOp] = {spec.op: spec for spec in (
    # -> the new transaction's (shard-local) id
    _op("begin", ("isolation", "ssi"), ("read_only", False),
        ("deferrable", False), reply="txn"),
    # point reads; ``read`` errors on a missing key, ``get`` defaults
    _op("read", "table", "key", reply="value"),
    _op("get", "table", "key", ("default", None), reply="value"),
    # SELECT ... FOR UPDATE: the promotion primitive
    _op("read_for_update", "table", "key", reply="value"),
    _op("put", "table", "key", "value", method="write"),
    _op("insert", "table", "key", "value"),
    _op("delete", "table", "key"),
    # predicate reads (key-range locked) -> (key, value) / (entry, pk) rows
    _op("scan", "table", *_RANGE, reply="rows", decode=_wire_rows),
    _op("index_scan", "index", *_RANGE, reply="rows", decode=_wire_keys),
    _op("index_lookup", "index", "key", reply="keys", decode=_wire_keys),
    _op("commit"),
    _op("abort"),
    # 2PC phase one: certify and stay prepared -> the shard's conflict
    # summary {"in", "out", "in_partner", "out_partner"}
    _op("prepare", reply="summary", kind="2pc"),
    # 2PC phase two, folding in the coordinator's merged flags
    _op("commit_prepared", ("import_in", False), ("import_out", False),
        kind="2pc"),
    # schema / bulk load / telemetry: no open transaction required
    _op("create_table", "table", kind="admin"),
    _op("load", "table", "rows", kind="admin"),
    _op("metrics", reply="metrics", kind="admin"),
    _op("ping", reply=("ok", "server", "connections"), kind="admin"),
    # shard oracles: the recorded history, each transaction labelled
    # with its global id, and the residual state after quiesce
    _op("dump_history", reply="txns", decode=_wire_history, kind="admin"),
    _op("audit", reply=("granted", "owners", "waiters", "siread",
                        "suspended", "prepared"), kind="admin"),
)}


def build_request(op: str, args: tuple = (), txn: Any = None) -> dict[str, Any]:
    """The request frame for ``op`` with positional ``args`` (trailing
    optional ones may be left off; the receiver applies the defaults).
    ``txn`` addresses a distributed transaction's server-wide session."""
    frame = dict(zip(WIRE_OPS[op].names, args))
    frame["op"] = op
    if txn is not None:
        frame["txn"] = txn
    return frame


def request_args(frame: dict[str, Any]) -> tuple[WireOp, list[Any]]:
    """The receiving half of :func:`build_request`: the op's table row
    and its positional arguments, defaults applied, keys rebuilt."""
    op = frame.get("op")
    spec = WIRE_OPS.get(op) if isinstance(op, str) else None
    if spec is None:
        raise ProtocolError(f"unknown op {op!r}")
    args = []
    for name, default, arrive in spec.fields:
        value = frame.get(name, default)
        if value is REQUIRED:
            raise ProtocolError(f"op {op!r} missing field {name!r}")
        args.append(arrive(value) if arrive is not None else value)
    return spec, args


def success_reply(spec: WireOp, result: Any) -> dict[str, Any]:
    """The ``ok`` reply carrying ``result`` where the op's row says."""
    if spec.reply is None:
        return {"ok": True}
    if isinstance(spec.reply, tuple):
        return {"ok": True, **result}
    return {"ok": True, spec.reply: result}


def read_result(op: str, reply: dict[str, Any]) -> Any:
    """The receiving half of :func:`success_reply`."""
    return WIRE_OPS[op].read(reply)


# --------------------------------------------------------------- framing


def encode_frame(message: dict[str, Any]) -> bytes:
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise FrameError(f"frame of {len(body)} bytes exceeds {MAX_FRAME}")
    return _HEADER.pack(len(body)) + body


def decode_frame(body: bytes) -> dict[str, Any]:
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameError(f"invalid frame body: {error}") from error
    if not isinstance(message, dict):
        raise FrameError("frame body must decode to an object")
    return message


async def read_frame_async(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one frame; None on clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise FrameError("connection closed mid-header") from error
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise FrameError(f"frame of {length} bytes exceeds {MAX_FRAME}")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise FrameError("connection closed mid-frame") from error
    return decode_frame(body)


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    """``count`` bytes, or fewer if the peer closed first."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_sock(sock: socket.socket) -> dict[str, Any] | None:
    """Blocking-socket twin of :func:`read_frame_async`."""
    header = _recv_exactly(sock, _HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise FrameError("connection closed mid-header")
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise FrameError(f"frame of {length} bytes exceeds {MAX_FRAME}")
    body = _recv_exactly(sock, length)
    if len(body) < length:
        raise FrameError("connection closed mid-frame")
    return decode_frame(body)


def send_frame_sock(sock: socket.socket, message: dict[str, Any]) -> None:
    sock.sendall(encode_frame(message))
