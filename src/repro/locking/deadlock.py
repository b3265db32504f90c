"""Deadlock detection over a waits-for relation read at detection time.

Two detection disciplines are supported, matching the two prototypes in
the paper:

* **Immediate** (InnoDB-style): a cycle check runs on every enqueue; the
  lock manager invokes its deadlock handler at once.
* **Periodic** (Berkeley DB ``db_perf``-style, Section 6.1.3): nobody
  checks at enqueue time; a sweep runs on an interval (twice a second in
  the paper), which is why blocked S2PL transactions stall visibly in the
  log-flush experiments — the simulator reproduces that delay.

Both need the waits-for relation only at that moment, so nothing stores
it: the searches below take ``successors(node)``, the nodes ``node``
waits for, and the lock manager answers it from its lock table.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

Successors = Callable[[Hashable], Iterable[Hashable]]


def find_cycle_through(start: Hashable, successors: Successors) -> list[Hashable]:
    """Return a cycle containing ``start``, or [] if none exists.

    DFS from ``start``; a path back to ``start`` is a deadlock.
    """
    path: list[Hashable] = [start]
    on_path = {start}
    visited: set[Hashable] = set()

    def dfs(node: Hashable) -> list[Hashable]:
        for target in successors(node):
            if target == start:
                return list(path)
            if target in on_path or target in visited:
                continue
            path.append(target)
            on_path.add(target)
            found = dfs(target)
            if found:
                return found
            on_path.discard(target)
            path.pop()
        visited.add(node)
        return []

    return dfs(start)


def find_cycles(
    nodes: Iterable[Hashable], successors: Successors
) -> list[list[Hashable]]:
    """Return one representative cycle per strongly connected component
    of size > 1 (plus self-loops) reachable from ``nodes``, via Tarjan's
    algorithm."""
    index_counter = [0]
    stack: list[Hashable] = []
    lowlink: dict[Hashable, int] = {}
    index: dict[Hashable, int] = {}
    on_stack: set[Hashable] = set()
    cycles: list[list[Hashable]] = []

    def strongconnect(node: Hashable) -> None:
        index[node] = lowlink[node] = index_counter[0]
        index_counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        targets = list(successors(node))
        for target in targets:
            if target not in index:
                strongconnect(target)
                lowlink[node] = min(lowlink[node], lowlink[target])
            elif target in on_stack:
                lowlink[node] = min(lowlink[node], index[target])
        if lowlink[node] == index[node]:
            component: list[Hashable] = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            if len(component) > 1 or node in targets:
                cycles.append(component)

    for node in nodes:
        if node not in index:
            strongconnect(node)
    return cycles


def youngest(cycle: list) -> object:
    """The deadlock victim of one cycle: its youngest transaction
    (largest begin timestamp), the policy the paper suggests reduces
    wasted work."""
    return max(cycle, key=lambda txn: getattr(txn, "begin_seq", None) or txn.begin_ts or 0)
