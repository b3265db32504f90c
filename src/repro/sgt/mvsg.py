"""Multiversion serialization graph (MVSG) construction.

Under snapshot isolation the MVSG is simple because versions of an item
are totally ordered by commit timestamp (paper Section 2.5.1).  Edges
between committed transactions T1 -> T2:

* **ww**: T1 installs a version of x, T2 installs a later version of x;
* **wr**: T1 installs the version of x that T2 read;
* **rw** (anti-dependency): T1 reads a version of x older than a version
  installed by T2 — including the phantom form, where T1's predicate scan
  missed a row T2 created or deleted inside the scanned range.

A cycle proves the history non-serializable; rw edges are the "dashed"
edges of the paper's figures and two consecutive ones around a pivot form
the dangerous structure.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Hashable, Iterable

from repro.sgt.history import HistoryRecorder, TxnRecord


@dataclass(frozen=True, slots=True)
class DependencyEdge:
    """A dependency in the MVSG."""

    src: int
    dst: int
    kind: str  # "ww" | "wr" | "rw"
    item: tuple  # (table, key) or (table, (lo, hi)) for phantom edges

    @property
    def is_antidependency(self) -> bool:
        return self.kind == "rw"


@dataclass(slots=True)
class MVSG:
    """The graph: committed transaction ids plus typed edges."""

    nodes: set[int] = field(default_factory=set)
    edges: set[DependencyEdge] = field(default_factory=set)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = defaultdict(set)
        for node in self.nodes:
            adj.setdefault(node, set())
        for edge in self.edges:
            adj[edge.src].add(edge.dst)
        return adj

    def find_cycle(self) -> list[int]:
        """Return node ids forming a cycle, or [] if the graph is acyclic."""
        adj = self.adjacency()
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {node: WHITE for node in adj}
        parent: dict[int, int] = {}

        for root in adj:
            if colour[root] != WHITE:
                continue
            stack = [(root, iter(adj[root]))]
            colour[root] = GREY
            while stack:
                node, neighbours = stack[-1]
                advanced = False
                for target in neighbours:
                    if colour[target] == WHITE:
                        colour[target] = GREY
                        parent[target] = node
                        stack.append((target, iter(adj[target])))
                        advanced = True
                        break
                    if colour[target] == GREY:
                        cycle = [target]
                        walker = node
                        while walker != target:
                            cycle.append(walker)
                            walker = parent[walker]
                        cycle.reverse()
                        return cycle
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return []

    def rw_edges(self) -> list[DependencyEdge]:
        return [edge for edge in self.edges if edge.is_antidependency]

    def pivots_in_cycle(self) -> list[int]:
        """Transactions with consecutive incoming+outgoing rw edges that lie
        on some cycle — the dangerous-structure pivots actually realised."""
        cycle = self.find_cycle()
        if not cycle:
            return []
        rw_in = {edge.dst for edge in self.rw_edges()}
        rw_out = {edge.src for edge in self.rw_edges()}
        return [node for node in cycle if node in rw_in and node in rw_out]

    def to_dot(self) -> str:
        """Graphviz rendering in the paper's notation: dashed edges are
        rw-antidependencies, cycle members are highlighted."""
        cycle = set(self.find_cycle())
        lines = ["digraph MVSG {", "  rankdir=LR;"]
        for node in sorted(self.nodes):
            style = ', style=filled, fillcolor="#f4cccc"' if node in cycle else ""
            lines.append(f'  "T{node}" [shape=circle{style}];')
        for edge in sorted(self.edges, key=lambda e: (e.src, e.dst, e.kind)):
            style = "dashed" if edge.is_antidependency else "solid"
            lines.append(
                f'  "T{edge.src}" -> "T{edge.dst}" '
                f'[style={style}, label="{edge.kind}"];'
            )
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"MVSG(nodes={len(self.nodes)}, edges={len(self.edges)})"


def build_mvsg(history: HistoryRecorder) -> MVSG:
    """Build the MVSG over the committed transactions of a history."""
    committed = {record.txn_id: record for record in history.committed()}
    graph = MVSG(nodes=set(committed))

    # Index writers: (table, key) -> sorted [(commit_ts, txn_id)]
    writers: dict[tuple[str, Hashable], list[tuple[int, int]]] = defaultdict(list)
    for record in committed.values():
        for op in record.writes():
            writers[(op.table, op.key)].append((record.commit_ts, record.txn_id))
    for versions in writers.values():
        versions.sort()
    # Written keys per table, sorted, so a predicate scan bisects [lo, hi]
    # instead of testing every written item.
    written: dict[str, list] = defaultdict(list)
    for table, key in writers:
        written[table].append(key)
    for keys in written.values():
        keys.sort()

    by_version: dict[tuple[str, Hashable, int], int] = {}
    for (table, key), versions in writers.items():
        for commit_ts, txn_id in versions:
            by_version[(table, key, commit_ts)] = txn_id

    def add(src: int, dst: int, kind: str, item: tuple) -> None:
        if src != dst and src in committed and dst in committed:
            graph.edges.add(DependencyEdge(src, dst, kind, item))

    # ww edges: version order on each item.
    for (table, key), versions in writers.items():
        for (_ts1, txn1), (_ts2, txn2) in zip(versions, versions[1:]):
            add(txn1, txn2, "ww", (table, key))

    for record in committed.values():
        # wr and rw edges from point reads.
        for op in record.reads():
            item = (op.table, op.key)
            if op.version_ts and op.version_ts > 0:
                creator = by_version.get((op.table, op.key, op.version_ts))
                if creator is not None:
                    add(creator, record.txn_id, "wr", item)
            observed_ts = op.version_ts if op.version_ts is not None else (
                record.begin_ts or 0
            )
            for commit_ts, writer_id in writers.get(item, ()):
                if commit_ts > observed_ts:
                    add(record.txn_id, writer_id, "rw", item)
        # phantom rw edges from predicate scans.
        for op in record.scans():
            lo, hi = op.key
            read_ts = op.version_ts or record.begin_ts or 0
            item = (op.table, (lo, hi))
            keys = written.get(op.table, ())
            start = 0 if lo is None else bisect_left(keys, lo)
            stop = len(keys) if hi is None else bisect_right(keys, hi)
            for key in keys[start:stop]:
                for commit_ts, writer_id in reversed(writers[(op.table, key)]):
                    if commit_ts <= read_ts:
                        break
                    add(record.txn_id, writer_id, "rw", item)
    return graph
