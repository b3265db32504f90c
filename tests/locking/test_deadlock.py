"""Waits-for graph and deadlock detection tests."""

from dataclasses import dataclass

from repro.locking.deadlock import WaitsForGraph, youngest
from repro.locking.manager import LockManager, RequestState, record_resource
from repro.locking.modes import LockMode

X = LockMode.EXCLUSIVE


@dataclass
class Owner:
    id: int
    begin_ts: int = 0


class TestWaitsForGraph:
    def test_no_cycle(self):
        graph = WaitsForGraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        assert graph.find_cycle_through(1) == []
        assert graph.find_cycles() == []

    def test_two_cycle(self):
        graph = WaitsForGraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 1)
        cycle = graph.find_cycle_through(1)
        assert set(cycle) == {1, 2}
        assert len(graph.find_cycles()) == 1

    def test_long_cycle(self):
        graph = WaitsForGraph()
        for src, dst in ((1, 2), (2, 3), (3, 4), (4, 1), (4, 5)):
            graph.add_edge(src, dst)
        assert set(graph.find_cycle_through(3)) == {1, 2, 3, 4}

    def test_self_edges_ignored(self):
        graph = WaitsForGraph()
        graph.add_edge(1, 1)
        assert len(graph) == 0

    def test_clear_edges_from_breaks_cycle(self):
        graph = WaitsForGraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 1)
        graph.clear_edges_from(2)
        assert graph.find_cycle_through(1) == []
        assert graph.edges_from(1) == {2}  # edges into 2 stay

    def test_multiple_disjoint_cycles(self):
        graph = WaitsForGraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 1)
        graph.add_edge(3, 4)
        graph.add_edge(4, 3)
        assert len(graph.find_cycles()) == 2


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
        assert lm.waits_for.edges_from(2) == {1}
        assert lm.cancel_request(wait.request, TimeoutError("lock wait"))
        # b waits for nobody any more, though it has not aborted yet
        assert len(lm.waits_for) == 0

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
