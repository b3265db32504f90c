"""Reconstruct *why* a transaction was doomed from the event trace.

``Database.explain_abort(txn_id)`` delegates here.  The explanation is
assembled purely from trace events, so it works after the transaction
record itself has been cleaned up — the debugging affordance the paper's
implementations lacked ("you cannot optimize or debug a
dangerous-structure abort you cannot see").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.trace import EventTrace, EventType, TraceEvent


@dataclass(slots=True)
class PivotTriple:
    """The dangerous structure T_in --rw--> pivot --rw--> T_out.

    Ids may be the string ``"multiple"`` when the conflict slot degraded
    to a self-reference (several conflicts, order lost — Fig 3.9), or
    ``None`` when that side was never recorded.
    """

    t_in: int | str | None
    pivot: int | str | None
    t_out: int | str | None

    def render(self) -> str:
        def show(ref):
            if ref is None:
                return "?"
            if isinstance(ref, str):
                return f"<{ref}>"
            return f"T{ref}"

        return f"{show(self.t_in)} --rw--> {show(self.pivot)} --rw--> {show(self.t_out)}"


@dataclass(slots=True)
class AbortExplanation:
    """Structured answer to "why did transaction X abort?"."""

    txn_id: int
    reason: str | None
    pivot: PivotTriple | None = None
    victim_policy: str | None = None
    #: rw edges touching the transaction: (reader_id, writer_id, ts)
    conflicts: list = field(default_factory=list)
    #: full per-transaction event timeline, oldest first
    timeline: list = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.reason is not None

    def render(self) -> str:
        lines = [f"transaction {self.txn_id}:"]
        if not self.found:
            lines.append("  no abort recorded in the trace window")
            return "\n".join(lines)
        lines.append(f"  aborted: reason={self.reason}")
        if self.pivot is not None:
            lines.append(f"  dangerous structure: {self.pivot.render()}")
        if self.victim_policy is not None:
            lines.append(f"  victim policy: {self.victim_policy}")
        if self.conflicts:
            lines.append("  rw-antidependencies:")
            for reader, writer, ts in self.conflicts:
                role = "out" if reader == self.txn_id else "in"
                lines.append(f"    [{role}] T{reader} --rw--> T{writer} (ts={ts})")
        lines.append("  timeline:")
        for event in self.timeline:
            extra = " ".join(f"{k}={v}" for k, v in event.data.items())
            lines.append(f"    @{event.ts} {event.type} {extra}".rstrip())
        return "\n".join(lines)

    def payload(self, gtids: dict[int, int]) -> dict:
        """The JSON-safe form that travels as an error reply's
        ``explanation``: reason, rendered text, rw edges, pivot triple,
        and — so a sharding coordinator can relabel the triple — the
        global id of every transaction named that has one in ``gtids``
        (shard-local id -> global id)."""
        payload: dict = {
            "reason": self.reason,
            "text": self.render(),
            "conflicts": [list(edge) for edge in self.conflicts],
        }
        mentioned = {self.txn_id}
        for reader, writer, _ts in self.conflicts:
            mentioned.update((reader, writer))
        pivot = self.pivot
        if pivot is not None:
            payload["pivot"] = {
                "t_in": pivot.t_in, "pivot": pivot.pivot, "t_out": pivot.t_out,
            }
            mentioned.update((pivot.t_in, pivot.pivot, pivot.t_out))
        named = {
            str(local): gtids[local] for local in mentioned if local in gtids
        }
        if named:
            payload["gtids"] = named
        return payload


def _triple_from_events(txn_id: int, events: list[TraceEvent]) -> PivotTriple | None:
    """Fallback reconstruction of the pivot triple from raw rw edges when
    no victim/unsafe event recorded it (e.g. the basic boolean tracker)."""
    t_in = t_out = None
    for event in events:
        if event.type != EventType.RW_CONFLICT:
            continue
        reader, writer = event.txn_id, event.data.get("peer")
        if writer == txn_id:
            t_in = reader if t_in in (None, reader) else "multiple"
        elif reader == txn_id:
            t_out = writer if t_out in (None, writer) else "multiple"
    if t_in is None and t_out is None:
        return None
    return PivotTriple(t_in=t_in, pivot=txn_id, t_out=t_out)


def explain_abort(trace: EventTrace, txn_id: int) -> AbortExplanation:
    """Build an :class:`AbortExplanation` for ``txn_id`` from ``trace``.

    Works bottom-up from whatever the retained window still holds: the
    abort event supplies the reason; a victim/unsafe event supplies the
    recorded pivot triple; remaining rw-conflict events corroborate (or,
    for the basic tracker, reconstruct) the dangerous structure.
    """
    timeline = trace.events(txn_id=txn_id)
    explanation = AbortExplanation(txn_id=txn_id, reason=None, timeline=timeline)

    abort_event = None
    for event in reversed(timeline):
        if event.type == EventType.ABORT and event.txn_id == txn_id:
            abort_event = event
            break
    if abort_event is None:
        return explanation
    explanation.reason = abort_event.data.get("reason")

    for event in timeline:
        if event.type == EventType.RW_CONFLICT:
            explanation.conflicts.append(
                (event.txn_id, event.data.get("peer"), event.ts)
            )

    # Prefer the pivot triple captured at detection time.
    for event in reversed(timeline):
        if event.type in (EventType.VICTIM, EventType.UNSAFE) and (
            event.txn_id == txn_id or event.data.get("pivot") == txn_id
        ):
            explanation.pivot = PivotTriple(
                t_in=event.data.get("t_in"),
                pivot=event.data.get("pivot"),
                t_out=event.data.get("t_out"),
            )
            explanation.victim_policy = event.data.get("policy")
            break
    if explanation.pivot is None and explanation.reason == "unsafe":
        explanation.pivot = _triple_from_events(txn_id, timeline)
    return explanation
