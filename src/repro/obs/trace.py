"""Structured per-transaction lifecycle event tracing.

Off by default.  When enabled, the engine emits one :class:`TraceEvent`
per interesting transition — begin, lock wait/grant/deny, rw-conflict
flag transition, victim selection, dangerous-structure abort (with the
full pivot triple), commit, suspend, cleanup — to pluggable sinks.

Overhead discipline: every emission site in the engine is guarded by a
single ``if trace is not None`` attribute test, so a database without
tracing pays one pointer comparison per site and allocates nothing.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.obs.registry import OBS_LATCH, json_safe


class EventType:
    """String constants for the traced lifecycle transitions."""

    BEGIN = "begin"
    SNAPSHOT = "snapshot"
    LOCK_WAIT = "lock_wait"
    LOCK_GRANT = "lock_grant"
    LOCK_DENY = "lock_deny"
    RW_CONFLICT = "rw_conflict"
    MIXED_EDGE = "mixed_edge_dropped"
    VICTIM = "victim"
    UNSAFE = "unsafe"
    COMMIT = "commit"
    PREPARE = "prepare"
    SUSPEND = "suspend"
    CLEANUP = "cleanup"
    ABORT = "abort"
    CALLBACK_ERROR = "lock_callback_error"

    ALL = (
        BEGIN, SNAPSHOT, LOCK_WAIT, LOCK_GRANT, LOCK_DENY, RW_CONFLICT,
        MIXED_EDGE, VICTIM, UNSAFE, COMMIT, PREPARE, SUSPEND, CLEANUP,
        ABORT, CALLBACK_ERROR,
    )


@dataclass(slots=True, frozen=True)
class TraceEvent:
    """One structured lifecycle event.

    Attributes:
        seq: monotonically increasing emission order.
        ts: the engine's logical clock at emission time.
        type: one of the :class:`EventType` constants.
        txn_id: the transaction the event belongs to.
        data: event-specific payload (peer ids, lock resource, reason...).
    """

    seq: int
    ts: int
    type: str
    txn_id: int
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "type": self.type,
            "txn": self.txn_id,
            **json_safe(self.data),
        }

    def __repr__(self) -> str:
        extra = " ".join(f"{k}={v!r}" for k, v in self.data.items())
        return f"<{self.seq}@{self.ts} {self.type} txn={self.txn_id} {extra}>".rstrip()


class RingBufferSink:
    """Bounded in-memory sink: keeps the most recent ``capacity`` events.

    Not internally locked: :meth:`EventTrace.emit` serialises all sink
    calls under the obs latch, and ``deque`` iteration for :meth:`events`
    is safe against concurrent appends under CPython's GIL.
    """

    def __init__(self, capacity: int = 8192):
        self.capacity = capacity
        self._buffer: deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0

    def emit(self, event: TraceEvent) -> None:
        if len(self._buffer) == self.capacity:
            self.dropped += 1
        self._buffer.append(event)

    def events(self) -> list[TraceEvent]:
        return list(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._buffer)


class JsonlFileSink:
    """Streams events as JSON lines to a file.

    Every line is strictly-valid JSON (non-finite floats are rendered as
    ``null``), so a trajectory file written by this sink always parses
    back under ``json.loads(..., parse_constant=<reject>)``.
    """

    def __init__(self, path, flush_every: int = 256):
        self.path = path
        self._file = open(path, "w", encoding="utf-8")
        self._flush_every = flush_every
        self._since_flush = 0
        self.written = 0

    def emit(self, event: TraceEvent) -> None:
        self._file.write(json.dumps(event.to_dict(), allow_nan=False))
        self._file.write("\n")
        self.written += 1
        self._since_flush += 1
        if self._since_flush >= self._flush_every:
            self._file.flush()
            self._since_flush = 0

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "JsonlFileSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CallbackSink:
    """Adapter: forward each event to a callable (tests, live dashboards)."""

    def __init__(self, callback: Callable[[TraceEvent], None]):
        self._callback = callback

    def emit(self, event: TraceEvent) -> None:
        self._callback(event)


class EventTrace:
    """The event-trace layer: sequences events and fans out to sinks.

    Args:
        sinks: sink objects with an ``emit(event)`` method.  When empty, a
            default :class:`RingBufferSink` is attached so
            :meth:`events` always works.
        clock: zero-arg callable returning the current logical timestamp;
            the database passes its own clock.
    """

    def __init__(self, *sinks, clock: Callable[[], int] | None = None,
                 capacity: int = 8192):
        self.sinks = list(sinks) if sinks else [RingBufferSink(capacity)]
        self._clock = clock or (lambda: 0)
        self._seq = 0

    def emit(self, etype: str, txn_id: int, **data) -> TraceEvent:
        # The obs latch makes sequence allocation atomic and serialises
        # sink fan-out: a ring-buffer append (deque mutation + dropped
        # bookkeeping) and a JSONL write are not safe under concurrent
        # emitters otherwise.  Sinks must not re-enter the engine.
        with OBS_LATCH:
            event = TraceEvent(
                seq=self._seq, ts=self._clock(), type=etype, txn_id=txn_id,
                data=data,
            )
            self._seq += 1
            for sink in self.sinks:
                sink.emit(event)
        return event

    # ------------------------------------------------------------ queries

    def _buffer(self) -> RingBufferSink | None:
        for sink in self.sinks:
            if isinstance(sink, RingBufferSink):
                return sink
        return None

    def events(
        self,
        txn_id: int | None = None,
        etype: str | Iterable[str] | None = None,
    ) -> list[TraceEvent]:
        """Events retained in the first ring-buffer sink, optionally
        filtered by transaction and/or event type(s)."""
        buffer = self._buffer()
        if buffer is None:
            return []
        types = {etype} if isinstance(etype, str) else (set(etype) if etype else None)
        return [
            event
            for event in buffer
            if (txn_id is None or event.txn_id == txn_id
                or event.data.get("peer") == txn_id)
            and (types is None or event.type in types)
        ]

    def close(self) -> None:
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()
