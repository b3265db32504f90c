"""Model-based property test of the lock manager's SSI detection.

Random sequences of point SIREADs (with and without the reader's key, so
the own-range coverage check runs or not), EXCLUSIVE writes (alone and
after a read of the same key), SIREAD key ranges, commit releases that keep SIREADs, abort releases, SIREAD drops
and escalations run, across several owners, against a brute-force model:
a flat map (owner, resource) -> modes, plus each owner's SIREAD grant
order and the fold weights escalation leaves.  Every request's detection
conflicts — the writers a reader reports (Fig 3.4) and the readers a
writer reports (Fig 3.5) — and, after every step, ``holds_any_siread``,
``table_size()`` and ``siread_lock_count()`` must match the model;
retiring everyone must leave ``residue()`` empty.

Writers take EXCLUSIVE only where no other owner holds it, and every
range is SIREAD, so no request ever waits: the model needs no queues.

Counting rule the model pins down: a point SIREAD is a reader-table
entry, a granted lock of its own — an owner that read and then wrote a
record with ``siread_upgrade`` off holds two there (its entry and its
EXCLUSIVE lock).  Ranges and EXCLUSIVE locks count one each.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.locking.manager import (
    LockManager,
    page_resource,
    range_resource,
    record_resource,
)
from repro.locking.modes import LockMode

SIREAD, X = LockMode.SIREAD, LockMode.EXCLUSIVE
N_OWNERS = 3
TABLES = ("t", "u")
KEYS = range(4)


@dataclass
class Owner:
    id: int
    begin_ts: int = 0


def _covers(bounds, key) -> bool:
    lo, hi = bounds
    return (lo is None or lo <= key) and (hi is None or key <= hi)


class Model:
    """What the lock table should hold, as plain sets."""

    def __init__(self, page: bool, siread_upgrade: bool):
        self.page = page
        self.siread_upgrade = siread_upgrade
        self.modes: dict[tuple[int, object], set] = {}
        #: owner id -> resources it holds SIREAD on, in grant order
        self.order: dict[int, list] = {}
        #: (owner id, folded range) -> the sentinels it stands for
        self.weights: dict[tuple[int, object], int] = {}
        self.upgrades = 0
        self.dropped = 0

    # ---------------------------------------------------------- helpers

    def point(self, table, key):
        return page_resource(table, key // 2) if self.page else record_resource(table, key)

    def has(self, owner, resource, mode) -> bool:
        return mode in self.modes.get((owner, resource), ())

    def add(self, owner, resource, mode) -> None:
        modes = self.modes.setdefault((owner, resource), set())
        if mode is SIREAD and SIREAD not in modes:
            self.order.setdefault(owner, []).append(resource)
        modes.add(mode)

    def remove(self, owner, resource, mode) -> None:
        modes = self.modes[(owner, resource)]
        modes.discard(mode)
        if mode is SIREAD:
            self.order[owner].remove(resource)
            if not self.order[owner]:
                del self.order[owner]
        if not modes:
            del self.modes[(owner, resource)]

    def holders(self, resource, mode, besides) -> list[int]:
        return [
            owner for (owner, held), modes in self.modes.items()
            if held == resource and mode in modes and owner != besides
        ]

    def range_readers(self, table, key, besides) -> list[int]:
        return sorted({
            owner for (owner, held), modes in self.modes.items()
            if held.kind == "range" and held.table == table and owner != besides
            and SIREAD in modes and _covers(held.key, key)
        })

    def owns_range_over(self, owner, table, key) -> bool:
        return any(
            held.kind == "range" and held.table == table and who == owner
            and SIREAD in modes and _covers(held.key, key)
            for (who, held), modes in self.modes.items()
        )

    # ------------------------------------------------------- operations

    def read(self, owner, table, key, with_key) -> list[int]:
        resource = self.point(table, key)
        if self.has(owner, resource, SIREAD) or self.has(owner, resource, X):
            return []
        if not (with_key and self.owns_range_over(owner, table, key)):
            self.add(owner, resource, SIREAD)
        return self.holders(resource, X, owner)

    def can_write(self, owner, table, key) -> bool:
        resources = [record_resource(table, key), self.point(table, key)]
        return not any(self.holders(r, X, owner) for r in resources)

    def exclusive(self, owner, resource) -> list[int]:
        if not self.has(owner, resource, X):
            if self.has(owner, resource, SIREAD):
                self.upgrades += 1
            self.add(owner, resource, X)
        if self.siread_upgrade and self.has(owner, resource, SIREAD):
            self.remove(owner, resource, SIREAD)
            self.dropped += 1
        found = self.holders(resource, SIREAD, owner)
        if resource.kind == "rec":
            found += self.range_readers(resource.table, resource.key, owner)
        return found

    def write(self, owner, table, key) -> list[int]:
        found = []
        if self.page:
            found += self.exclusive(owner, self.point(table, key))
        return found + self.exclusive(owner, record_resource(table, key))

    def scan(self, owner, table, lo, hi) -> list[int]:
        resource = range_resource(table, lo, hi)
        if self.has(owner, resource, SIREAD) and (owner, resource) not in self.weights:
            return []
        self.add(owner, resource, SIREAD)
        return [
            who for (who, held), modes in self.modes.items()
            if held.kind == "rec" and held.table == table and who != owner
            and X in modes and _covers((lo, hi), held.key)
        ]

    def commit(self, owner) -> None:
        for (who, resource), modes in list(self.modes.items()):
            if who == owner:
                for mode in modes - {SIREAD}:
                    self.remove(owner, resource, mode)

    def abort(self, owner) -> None:
        for (who, resource), modes in list(self.modes.items()):
            if who == owner:
                for mode in list(modes):
                    self.remove(owner, resource, mode)
                self.weights.pop((owner, resource), None)

    def drop(self, owner) -> int:
        total = 0
        for resource in list(self.order.get(owner, ())):
            total += self.weights.pop((owner, resource), 1)
            self.remove(owner, resource, SIREAD)
        self.dropped += total
        return total

    def table_size(self) -> int:
        return sum(len(modes) for modes in self.modes.values())

    def siread_count(self) -> int:
        return sum(len(order) for order in self.order.values())

    def escalate(self, budget) -> None:
        if self.table_size() <= budget:
            return
        ranked = sorted(self.order, key=lambda o: (-len(self.order[o]), str(o)))
        for owner in ranked:
            by_table: dict[str, list] = {}
            for resource in self.order[owner]:
                if resource.kind != "page" and self.modes[(owner, resource)] == {SIREAD}:
                    by_table.setdefault(resource.table, []).append(resource)
            for table, resources in by_table.items():
                if len(resources) > 1:
                    self.fold(owner, table, resources)
                if self.table_size() <= budget:
                    return

    def fold(self, owner, table, resources) -> None:
        spans = [r.key if r.kind == "range" else (r.key, r.key) for r in resources]
        los = [lo for lo, _ in spans]
        his = [hi for _, hi in spans]
        target = range_resource(
            table, None if None in los else min(los), None if None in his else max(his)
        )
        weight = self.weights.get((owner, target), 1)
        self.add(owner, target, SIREAD)
        folded = [r for r in resources if r != target]
        for resource in folded:
            weight += self.weights.pop((owner, resource), 1)
            self.remove(owner, resource, SIREAD)
        self.weights[(owner, target)] = weight


owner_ids = st.integers(0, N_OWNERS - 1)
tables = st.sampled_from(TABLES)
keys = st.sampled_from(KEYS)
bounds = st.one_of(st.none(), keys)

op = st.one_of(
    st.tuples(st.just("read"), owner_ids, tables, keys, st.booleans()),
    st.tuples(st.just("write"), owner_ids, tables, keys),
    # read-modify-write of one key, SmallBank's pattern
    st.tuples(st.just("rmw"), owner_ids, tables, keys),
    st.tuples(st.just("scan"), owner_ids, tables, bounds, bounds),
    st.tuples(st.just("commit"), owner_ids),
    st.tuples(st.just("abort"), owner_ids),
    st.tuples(st.just("drop"), owner_ids),
    st.tuples(st.just("escalate"), st.integers(0, 6)),
)


def ids(locks) -> list[int]:
    return sorted(lock.owner.id for lock in locks)


def step(lm: LockManager, model: Model, owners, op) -> None:
    kind = op[0]
    if kind == "rmw":
        _, owner, table, key = op
        step(lm, model, owners, ("read", owner, table, key, True))
        step(lm, model, owners, ("write", owner, table, key))
    elif kind == "read":
        _, owner, table, key, with_key = op
        result = lm.acquire(
            owners[owner], model.point(table, key), SIREAD,
            key if with_key else None,
        )
        assert result.granted
        assert ids(result.detection_conflicts) == sorted(
            model.read(owner, table, key, with_key)
        ), op
    elif kind == "write":
        _, owner, table, key = op
        if not model.can_write(owner, table, key):
            return
        found = []
        resources = [record_resource(table, key)]
        if model.page:
            resources.insert(0, model.point(table, key))
        for resource in resources:
            result = lm.acquire(owners[owner], resource, X)
            assert result.granted
            found += result.detection_conflicts
        assert ids(found) == sorted(model.write(owner, table, key)), op
    elif kind == "scan":
        _, owner, table, lo, hi = op
        if lo is not None and hi is not None and hi < lo:
            lo, hi = hi, lo
        writers = lm.acquire_range(owners[owner], table, lo, hi, SIREAD)
        assert ids(writers) == sorted(model.scan(owner, table, lo, hi)), op
    elif kind == "commit":
        lm.release_all(owners[op[1]], keep_siread=True)
        model.commit(op[1])
    elif kind == "abort":
        lm.release_all(owners[op[1]])
        model.abort(op[1])
    elif kind == "drop":
        assert lm.drop_siread_locks(owners[op[1]]) == model.drop(op[1])
    elif kind == "escalate":
        lm.escalate(op[1])
        model.escalate(op[1])


def check(lm: LockManager, model: Model, owners) -> None:
    assert lm.table_size() == model.table_size()
    assert lm.siread_lock_count() == model.siread_count()
    for owner in owners:
        assert lm.holds_any_siread(owner) == (owner.id in model.order)
    assert lm.stats["upgrades"] == model.upgrades
    assert lm.stats["siread_dropped"] == model.dropped


@pytest.mark.parametrize("siread_upgrade", [True, False], ids=["upgrade", "no-upgrade"])
@pytest.mark.parametrize("page", [False, True], ids=["record", "page"])
@settings(max_examples=200, deadline=None)
@given(sequence=st.lists(op, max_size=50))
def test_detection_matches_the_model(page, siread_upgrade, sequence):
    lm = LockManager(siread_upgrade=siread_upgrade)
    model = Model(page, siread_upgrade)
    owners = [Owner(i, begin_ts=i) for i in range(N_OWNERS)]
    for operation in sequence:
        step(lm, model, owners, operation)
        check(lm, model, owners)
    # retire everyone the way the engine does: commit keeps the SIREADs,
    # cleanup drops them
    for owner in owners:
        lm.release_all(owner, keep_siread=True)
        model.commit(owner.id)
        assert lm.drop_siread_locks(owner) == model.drop(owner.id)
    check(lm, model, owners)
    assert model.table_size() == 0
    assert not any(lm.residue().values())
