"""Deadlock detection tests: the cycle searches and the lock manager's
waits-for relation, read off its queues at detection time."""

from dataclasses import dataclass

from repro.locking.deadlock import find_cycle_through, find_cycles, youngest
from repro.locking.manager import (
    LockManager, RequestState, range_resource, record_resource,
)
from repro.locking.modes import LockMode

X = LockMode.EXCLUSIVE
S = LockMode.SHARED


@dataclass
class Owner:
    id: int
    begin_ts: int = 0


def successors_of(edges: dict):
    """A waits-for relation as the cycle searches read it."""
    return lambda node: edges.get(node, ())


class TestCycleSearch:
    def test_no_cycle(self):
        succ = successors_of({1: [2], 2: [3]})
        assert find_cycle_through(1, succ) == []
        assert find_cycles([1, 2], succ) == []

    def test_two_cycle(self):
        succ = successors_of({1: [2], 2: [1]})
        assert set(find_cycle_through(1, succ)) == {1, 2}
        assert len(find_cycles([1, 2], succ)) == 1

    def test_long_cycle(self):
        succ = successors_of({1: [2], 2: [3], 3: [4], 4: [1, 5]})
        assert set(find_cycle_through(3, succ)) == {1, 2, 3, 4}

    def test_self_loop_is_a_cycle(self):
        succ = successors_of({1: [1]})
        assert find_cycle_through(1, succ) == [1]
        assert find_cycles([1], succ) == [[1]]

    def test_a_node_waiting_for_nobody_breaks_the_cycle(self):
        succ = successors_of({1: [2], 2: []})
        assert find_cycle_through(1, succ) == []
        assert find_cycles([1, 2], succ) == []

    def test_cycle_not_through_start_is_not_reported(self):
        succ = successors_of({1: [2], 2: [3], 3: [2]})
        assert find_cycle_through(1, succ) == []
        assert [set(cycle) for cycle in find_cycles([1], succ)] == [{2, 3}]

    def test_multiple_disjoint_cycles(self):
        succ = successors_of({1: [2], 2: [1], 3: [4], 4: [3]})
        assert len(find_cycles([1, 2, 3, 4], succ)) == 2


class TestImmediateDetection:
    def test_deadlock_resolved_by_handler(self):
        victims = []

        def handler(cycle, request):
            victim = request.owner
            victims.append(victim.id)
            lm.cancel_waits(victim, RuntimeError("deadlock"))
            return victim

        lm = LockManager(deadlock_handler=handler)
        a, b = Owner(1), Owner(2)
        ra, rb = record_resource("t", "a"), record_resource("t", "b")
        lm.acquire(a, ra, X)
        lm.acquire(b, rb, X)
        lm.acquire(a, rb, X)  # a waits for b
        result = lm.acquire(b, ra, X)  # b waits for a -> cycle
        assert victims == [2]
        assert result.request.state is RequestState.DENIED

    def test_no_false_deadlock(self):
        called = []
        lm = LockManager(deadlock_handler=lambda c, r: called.append(1))
        a, b = Owner(1), Owner(2)
        ra = record_resource("t", "a")
        lm.acquire(a, ra, X)
        lm.acquire(b, ra, X)  # plain wait, no cycle
        assert called == []

    def test_timed_out_waiter_leaves_no_edge(self):
        lm = LockManager()
        a, b = Owner(1), Owner(2)
        ra = record_resource("t", "a")
        lm.acquire(a, ra, X)
        wait = lm.acquire(b, ra, X)
        assert lm.waits_for(2) == {1}
        assert lm.cancel_request(wait.request, TimeoutError("lock wait"))
        # b waits for nobody any more, though it has not aborted yet
        assert lm.waits_for(2) == set()
        assert lm.waits_for(1) == set()

    def test_no_victim_behind_a_timed_out_waiter(self):
        """b times out waiting for a but still holds its own lock; a then
        queues behind b.  That is a plain wait — b's dead request must not
        close a cycle and get a (or b) shot as a deadlock victim."""
        called = []
        lm = LockManager(deadlock_handler=lambda c, r: called.append(c))
        a, b = Owner(1), Owner(2)
        ra, rb = record_resource("t", "a"), record_resource("t", "b")
        lm.acquire(a, ra, X)
        lm.acquire(b, rb, X)
        timed_out = lm.acquire(b, ra, X).request
        lm.cancel_request(timed_out, TimeoutError("lock wait"))
        behind = lm.acquire(a, rb, X)
        assert called == []
        assert behind.request.state is RequestState.WAITING
        lm.release_all(b)  # b's abort: a gets the lock
        assert behind.request.state is RequestState.GRANTED

    def test_an_upgrader_does_not_wait_for_itself(self):
        lm = LockManager()
        a, b = Owner(1), Owner(2)
        ra = record_resource("t", "a")
        lm.acquire(a, ra, S)
        lm.acquire(b, ra, S)
        assert not lm.acquire(a, ra, X).granted
        assert lm.waits_for(1) == {2}


def writer_granted_off_a_withdrawn_range(lm: LockManager):
    """The S2PL scan path's four steps: writer G queues on scanner H's
    SHARED range, H withdraws the range (granting G), G takes its record,
    and H then waits on G's record.  G waits for nobody, so H's wait is a
    plain one."""
    g, h = Owner(2, begin_ts=1), Owner(3, begin_ts=2)
    key = record_resource("t", 2)
    lm.acquire_range(h, "t", 0, 9, S)
    queued = lm.acquire(g, key, X).request
    assert queued.resource == range_resource("t", 0, 9)
    lm.release_range(h, "t", 0, 9)
    assert queued.state is RequestState.GRANTED
    assert lm.acquire(g, key, X).granted
    wait = lm.acquire(h, key, S).request
    return g, h, wait


class TestNoFalseDeadlock:
    def test_immediate_detection_sees_a_plain_wait(self):
        called = []
        lm = LockManager(deadlock_handler=lambda c, r: called.append(c))
        g, h, wait = writer_granted_off_a_withdrawn_range(lm)
        assert called == []
        assert wait.state is RequestState.WAITING
        assert lm.waits_for(h.id) == {g.id}
        assert lm.waits_for(g.id) == set()

    def test_periodic_sweep_finds_no_victim(self):
        lm = LockManager()
        g, h, wait = writer_granted_off_a_withdrawn_range(lm)
        assert lm.find_deadlock_victims(youngest) == []
        assert wait.state is RequestState.WAITING
        lm.release_all(g)
        assert wait.state is RequestState.GRANTED


class TestPeriodicSweep:
    def test_sweep_finds_victims(self):
        lm = LockManager()  # no immediate handler
        a, b = Owner(1, begin_ts=10), Owner(2, begin_ts=20)
        ra, rb = record_resource("t", "a"), record_resource("t", "b")
        lm.acquire(a, ra, X)
        lm.acquire(b, rb, X)
        lm.acquire(a, rb, X)
        lm.acquire(b, ra, X)
        victims = lm.find_deadlock_victims(youngest)
        # youngest (largest begin_ts) chosen, one per cycle
        assert [victim.id for victim in victims] == [2]

    def test_sweep_without_deadlock_is_quiet(self):
        lm = LockManager()
        a = Owner(1)
        lm.acquire(a, record_resource("t", "a"), X)
        assert lm.find_deadlock_victims(youngest) == []

    def test_victim_policies(self):
        old, young = Owner(1, begin_ts=1), Owner(2, begin_ts=9)
        assert youngest([old, young]) is young
        assert youngest([young, old]) is young
