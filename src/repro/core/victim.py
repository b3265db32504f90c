"""Victim selection for unsafe-conflict aborts (paper Section 3.7.2).

When a dangerous pattern is detected, correctness allows aborting either
transaction involved; the choice is a policy.  The paper's prototypes
"prefer to abort the pivot (the transaction with both incoming and
outgoing edges) unless the pivot has already committed"; it also suggests
aborting the younger transaction to let complex transactions finish.
"""

from __future__ import annotations

from typing import Callable, Sequence

#: A policy maps the abortable candidates (active transactions that
#: currently carry both an incoming and an outgoing conflict) plus the
#: two parties of the edge just marked, to the transaction to abort.
VictimPolicy = Callable[[Sequence, object, object], object]


def pivot_first(candidates: Sequence, reader: object, writer: object) -> object:
    """Abort the first detected pivot (the paper's default).

    ``candidates`` holds the active transactions that became pivots from
    this conflict; the edge's reader is preferred when both did, matching
    the prototypes' behaviour of aborting at the point of detection.
    """
    return candidates[0]


def _age(txn) -> float:
    """Begin order: snapshot timestamps can tie (no commit in between),
    so the begin sequence number breaks ties."""
    return getattr(txn, "begin_seq", None) or txn.begin_ts or 0


def youngest_first(candidates: Sequence, reader: object, writer: object) -> object:
    """Abort the youngest candidate (latest to begin).

    Prioritises long-running (complex) transactions, reducing starvation
    of expensive work (Section 3.7.2's suggested alternative).
    """
    return max(candidates, key=_age)


def oldest_first(candidates: Sequence, reader: object, writer: object) -> object:
    """Abort the oldest candidate — included for ablation comparison."""
    return min(candidates, key=_age)


POLICIES: dict[str, VictimPolicy] = {
    "pivot": pivot_first,
    "youngest": youngest_first,
    "oldest": oldest_first,
}
