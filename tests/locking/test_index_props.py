"""Property tests for the lock manager's derived indexes (PR-4).

The optimized :class:`LockManager` answers its hot-path queries from
derived state — the per-owner lock index (``_by_owner``), the packed
per-head mode summary (``_LockHead.counts``/``mask``), the per-owner
waiting-request index (``_waiting``), the per-owner read lists
(``_reads``: every lock carrying SIREAD, point or range), the per-table
key-range index (``_ranges``), the sorted EXCLUSIVE record keys of
range-touched tables (``_exclusive_keys``) and the global granted
counter — instead of walking the lock table.
These tests drive random sequences of acquires (single and batched),
SIREAD and SHARED key-range placements (with the writers a SHARED
range queues), releases, SIREAD drops, wait
cancellations and SIREAD escalation (folds into key ranges), then rebuild
every index from the ground-truth table (the per-resource heads, where a
point SIREAD is a mode of its owner's lock like any other) and require
exact agreement.
"""

from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.locking.manager import (
    AcquireStatus,
    LockManager,
    RequestState,
    page_resource,
    record_resource,
)
from repro.locking.modes import LockMode

N_OWNERS = 5

RESOURCES = (
    [record_resource("t", k) for k in range(4)]
    + [record_resource("u", k) for k in range(2)]
    + [page_resource("t", 0)]
)

MODES = list(LockMode)
READ_MODES = (LockMode.SIREAD, LockMode.SHARED)


@dataclass
class Owner:
    id: int
    begin_ts: int = 0


def rebuild_ground_truth(lm: LockManager):
    """Recompute every derived index by walking the per-resource heads."""
    by_owner: dict = {}
    reads: dict = {}
    granted_total = 0
    for resource, head in lm._heads.items():
        assert not head.empty(), f"empty head for {resource!r} not reclaimed"
        mode_counts = {mode: 0 for mode in MODES}
        for owner_id, lock in head.granted.items():
            assert lock.resource == resource
            assert lock.owner.id == owner_id
            assert lock.mask, "granted lock carrying no modes"
            granted_total += 1
            by_owner.setdefault(owner_id, {})[resource] = lock
            for mode in MODES:
                if lock.mask & mode.bit:
                    mode_counts[mode] += 1
            if lock.mask & LockMode.SIREAD.bit:
                reads.setdefault(owner_id, set()).add(resource)
        # the packed summary must agree with the recount, mode by mode
        expected_mask = 0
        for mode, count in mode_counts.items():
            assert head.mode_count(mode) == count
            if count:
                expected_mask |= mode.bit
        assert head.mask == expected_mask
    waiting: dict = {}
    for head in lm._heads.values():
        for request in head.queue or ():
            if request.state is RequestState.WAITING:
                waiting.setdefault(request.owner.id, set()).add(request)
    return by_owner, reads, granted_total, waiting


def check_agreement(lm: LockManager, owners):
    by_owner, reads, granted_total, waiting = rebuild_ground_truth(lm)
    assert {o: d for o, d in lm._by_owner.items() if d} == by_owner
    assert {o: set(r) for o, r in lm._reads.items()} == reads
    assert all(len(r) == len(set(r)) for r in lm._reads.values())
    assert lm.table_size() == granted_total
    assert {o: s for o, s in lm._waiting.items() if s} == waiting
    assert lm.residue() == {
        "granted": granted_total,
        "owners": len(by_owner.keys() | reads.keys()),
        "waiters": len(waiting),
        "siread": sum(len(r) for r in reads.values()),
    }
    # the range index holds exactly the range heads, the EXCLUSIVE key
    # index exactly the EXCLUSIVE record keys of each tracked table
    assert {
        resource: head
        for ranges in lm._ranges.values()
        for resource, head in ranges.items()
    } == {r: h for r, h in lm._heads.items() if r.kind == "range"}
    for table, keys in lm._exclusive_keys.items():
        assert keys == sorted(
            r.key for r, h in lm._heads.items()
            if r.kind == "rec" and r.table == table
            and h.mask & LockMode.EXCLUSIVE.bit
        )
    # an escalation weight never outlives the sentinel it weighs
    for owner_id, resource in lm._escalated_weights:
        assert by_owner[owner_id][resource].mask & LockMode.SIREAD.bit
    # public queries answered from the indexes agree with the table
    for owner in owners:
        held = by_owner.get(owner.id, {})
        read = reads.get(owner.id, set())
        masks = {
            resource: lock.mask for resource, lock in held.items()
        }
        for resource in read:
            masks[resource] = masks.get(resource, 0) | LockMode.SIREAD.bit
        assert {
            lock.resource: lock.mask for lock in lm.locks_held_by(owner)
        } == masks
        assert lm.holds_any_siread(owner) == bool(read)
        for resource in RESOURCES:
            mask = masks.get(resource, 0)
            assert lm.holds(owner, resource) == bool(mask)
            for mode in MODES:
                assert lm.holds(owner, resource, mode) == bool(mask & mode.bit)


owner_ids = st.integers(0, N_OWNERS - 1)
resource_sets = st.lists(
    st.integers(0, len(RESOURCES) - 1), unique=True, max_size=len(RESOURCES)
)
#: key-range bounds over the record keys 0..3 (None = open end)
bounds = st.one_of(st.none(), st.integers(0, 3))

op = st.one_of(
    st.tuples(
        st.just("acquire"),
        owner_ids,
        st.integers(0, len(RESOURCES) - 1),
        st.sampled_from(MODES),
    ),
    st.tuples(
        st.just("read_batch"), owner_ids, resource_sets,
        st.sampled_from(READ_MODES),
    ),
    st.tuples(
        st.just("release_all"),
        owner_ids,
        st.booleans(),  # keep_siread
    ),
    st.tuples(st.just("drop_siread"), owner_ids),
    st.tuples(st.just("cancel_waits"), owner_ids),
    st.tuples(st.just("cancel_request"), owner_ids),
    st.tuples(
        st.just("range"), owner_ids, bounds, bounds, st.sampled_from(READ_MODES)
    ),
    st.tuples(st.just("escalate"), st.integers(0, 8)),  # budget
)
ops = st.lists(op, max_size=60)


def apply(lm: LockManager, owners, requests, op):
    """Run one op; ``requests`` collects every request that had to wait
    (what ``cancel_request`` later picks from)."""
    kind = op[0]
    if kind == "acquire":
        _, owner, resource, mode = op
        result = lm.acquire(owners[owner], RESOURCES[resource], mode)
        if result.request is not None:
            requests.append(result.request)
    elif kind == "read_batch":
        _, owner, resources, mode = op
        lm.acquire_read_batch(
            owners[owner], [RESOURCES[r] for r in resources], mode
        )
    elif kind == "range":
        _, owner, lo, hi, mode = op
        lm.acquire_range(owners[owner], "t", lo, hi, mode)
    elif kind == "escalate":
        lm.escalate(op[1])
    elif kind == "release_all":
        _, owner, keep_siread = op
        lm.release_all(owners[owner], keep_siread=keep_siread)
    elif kind == "drop_siread":
        lm.drop_siread_locks(owners[op[1]])
    elif kind == "cancel_waits":
        lm.cancel_waits(owners[op[1]])
    elif kind == "cancel_request":
        for request in requests:
            if request.owner is owners[op[1]] and not request.resolved:
                assert lm.cancel_request(request)
                break
    else:
        raise AssertionError(f"unknown op {kind!r}")


@settings(max_examples=120, deadline=None)
@given(ops)
def test_indexes_agree_with_lock_table(sequence):
    lm = LockManager()  # no deadlock handler: waiters just queue
    owners = [Owner(i, begin_ts=i) for i in range(N_OWNERS)]
    requests: list = []
    for step in sequence:
        apply(lm, owners, requests, step)
        check_agreement(lm, owners)
    # drain everything: the indexes must end empty along with the table
    for owner in owners:
        lm.release_all(owner)
        lm.drop_siread_locks(owner)
    check_agreement(lm, owners)
    assert not lm._heads
    assert not lm.chain_readers
    assert not any(lm.residue().values())
    assert not lm._escalated_weights
    assert not any(lm._ranges.values())
    assert not any(lm._exclusive_keys.values())


def table_of(lm: LockManager):
    """The lock table as plain data: who holds what, who queues where."""
    return {
        resource: (
            {owner_id: lock.mask for owner_id, lock in head.granted.items()},
            [(r.owner.id, r.mode) for r in head.queue or ()],
        )
        for resource, head in lm._heads.items()
    }


def acquire_in_order(lm: LockManager, owner, resources, mode, skip=()):
    """The engine's one-at-a-time path: stop at the first wait.  Returns
    the ids of the conflicting owners reported along the way, except on
    the resources in ``skip``."""
    conflicts = []
    for resource in resources:
        result = lm.acquire(owner, resource, mode)
        if result.status is AcquireStatus.WAIT:
            break
        if resource not in skip:
            conflicts += [lock.owner.id for lock in result.detection_conflicts]
    return conflicts


@settings(max_examples=120, deadline=None)
@given(
    st.lists(op, max_size=25), owner_ids, resource_sets,
    st.sampled_from(READ_MODES),
)
def test_read_batch_equals_one_by_one(setup, owner, resources, mode):
    """``acquire_read_batch`` plus the normal path for what it defers is
    ``acquire`` resource by resource: same table, same conflicting
    owners, same counters.  The one licensed difference: on a resource
    the reader already covers, ``acquire`` reports the conflicts again
    (operation retry relies on it) and the batch does not (a scan
    dispatched them when the lock was first granted)."""
    batched, single = LockManager(), LockManager()
    owners = [Owner(i, begin_ts=i) for i in range(N_OWNERS)]
    for lm in (batched, single):
        requests: list = []
        for step in setup:
            apply(lm, owners, requests, step)
    wanted = [RESOURCES[r] for r in resources]
    reader = owners[owner]
    covered = {
        lock.resource for lock in single.locks_held_by(reader)
        if lock.mask & mode.covered_by_mask
    }

    conflicts, deferred = batched.acquire_read_batch(reader, wanted, mode)
    if mode is LockMode.SHARED:
        # a blocking mode defers a suffix, everything before it is held
        settled = len(wanted) - len(deferred)
        assert deferred == wanted[settled:]
        assert all(batched.holds(reader, r, mode) or
                   batched.holds(reader, r, LockMode.EXCLUSIVE)
                   for r in wanted[:settled])
    batch_conflicts = [lock.owner.id for lock in conflicts]
    batch_conflicts += acquire_in_order(batched, reader, deferred, mode)
    single_conflicts = acquire_in_order(single, reader, wanted, mode, covered)

    check_agreement(batched, owners)
    assert table_of(batched) == table_of(single)
    assert sorted(batch_conflicts) == sorted(single_conflicts)
    assert batched.stats == single.stats
