"""Conflict-tracker unit tests (Figs 3.2-3.5, 3.9-3.10).

A lightweight FakeTxn stands in for engine transactions so the tracker
logic is tested in isolation.
"""

import pytest

from repro.core.conflicts import (
    BasicConflictTracker,
    EnhancedConflictTracker,
    make_tracker,
)


class FakeTxn:
    _next_id = iter(range(1, 10_000))

    def __init__(self, begin_ts=0):
        self.id = next(FakeTxn._next_id)
        self.begin_ts = begin_ts
        self.commit_ts = None
        self.status = "active"
        self.in_conflict = None
        self.out_conflict = None

    @property
    def is_active(self):
        return self.status == "active"

    @property
    def is_committed(self):
        return self.status == "committed"

    def commit(self, ts):
        self.commit_ts = ts
        self.status = "committed"

    def __repr__(self):
        return f"FakeTxn({self.id}, {self.status})"


def fresh(tracker, n, begin=0):
    txns = [FakeTxn(begin_ts=begin + i) for i in range(n)]
    for txn in txns:
        tracker.init_transaction(txn)
    return txns


class TestBasicTracker:
    def test_init_clears_flags(self):
        tracker = BasicConflictTracker()
        (txn,) = fresh(tracker, 1)
        assert txn.in_conflict is False and txn.out_conflict is False

    def test_single_edge_no_victim(self):
        tracker = BasicConflictTracker()
        reader, writer = fresh(tracker, 2)
        assert tracker.mark_conflict(reader, writer) is None
        assert reader.out_conflict and writer.in_conflict
        assert not reader.in_conflict and not writer.out_conflict

    def test_pivot_aborted_early(self):
        tracker = BasicConflictTracker()
        t_in, pivot, t_out = fresh(tracker, 3)
        tracker.mark_conflict(pivot, t_out)
        victim = tracker.mark_conflict(t_in, pivot)
        assert victim is pivot  # both flags set while active

    def test_committed_writer_with_out_conflict_kills_reader(self):
        # Fig 3.3 lines 3-5.
        tracker = BasicConflictTracker()
        reader, writer, other = fresh(tracker, 3)
        tracker.mark_conflict(writer, other)  # writer.out = True
        writer.commit(ts=10)
        victim = tracker.mark_conflict(reader, writer)
        assert victim is reader

    def test_committed_reader_with_in_conflict_kills_writer(self):
        # Fig 3.3 lines 6-8.
        tracker = BasicConflictTracker()
        reader, writer, other = fresh(tracker, 3)
        tracker.mark_conflict(other, reader)  # reader.in = True
        reader.commit(ts=10)
        victim = tracker.mark_conflict(reader, writer)
        assert victim is writer

    def test_self_conflict_ignored(self):
        tracker = BasicConflictTracker()
        (txn,) = fresh(tracker, 1)
        assert tracker.mark_conflict(txn, txn) is None
        assert not txn.in_conflict and not txn.out_conflict

    def test_write_skew_scenario(self):
        """Two transactions, mutual rw edges: the second mark aborts one."""
        tracker = BasicConflictTracker()
        t1, t2 = fresh(tracker, 2)
        assert tracker.mark_conflict(t1, t2) is None
        victim = tracker.mark_conflict(t2, t1)
        assert victim in (t1, t2)


class TestEnhancedTracker:
    def test_init_clears_refs(self):
        tracker = EnhancedConflictTracker()
        (txn,) = fresh(tracker, 1)
        assert txn.in_conflict is None and txn.out_conflict is None

    def test_references_recorded(self):
        tracker = EnhancedConflictTracker()
        reader, writer = fresh(tracker, 2)
        tracker.mark_conflict(reader, writer)
        assert reader.out_conflict is writer
        assert writer.in_conflict is reader

    def test_second_conflict_becomes_self_reference(self):
        tracker = EnhancedConflictTracker()
        reader, w1, w2 = fresh(tracker, 3)
        tracker.mark_conflict(reader, w1)
        tracker.mark_conflict(reader, w2)
        assert reader.out_conflict is reader  # self-loop = "many"

    def test_false_positive_of_fig_3_8_avoided(self):
        """Fig 3.8: Tin -> Tpivot -> Tout where Tin commits BEFORE Tout.
        The basic tracker aborts the pivot; the enhanced one must not."""
        tracker = EnhancedConflictTracker()
        t_in, pivot, t_out = fresh(tracker, 3)
        tracker.mark_conflict(t_in, pivot)   # Tin reads, pivot writes
        t_in.commit(ts=10)
        tracker.mark_conflict(pivot, t_out)  # pivot reads, Tout writes
        t_out.commit(ts=20)
        # commit-time(out)=20 > commit-time(in)=10: Tout did not commit
        # first, equivalent to serial {Tin, Tpivot, Tout}.
        assert tracker.check_commit(pivot) is False

    def test_dangerous_when_out_commits_first(self):
        tracker = EnhancedConflictTracker()
        t_in, pivot, t_out = fresh(tracker, 3)
        tracker.mark_conflict(pivot, t_out)
        t_out.commit(ts=10)
        tracker.mark_conflict(t_in, pivot)  # Tin still active
        assert tracker.check_commit(pivot) is True

    def test_uncommitted_single_out_is_safe(self):
        """An uncommitted outgoing reference will commit after the pivot,
        so it cannot be the first committer of a cycle."""
        tracker = EnhancedConflictTracker()
        t_in, pivot, t_out = fresh(tracker, 3)
        tracker.mark_conflict(t_in, pivot)
        tracker.mark_conflict(pivot, t_out)  # t_out still active
        assert tracker.check_commit(pivot) is False

    def test_self_out_reference_is_conservative(self):
        tracker = EnhancedConflictTracker()
        t_in, pivot, o1, o2 = fresh(tracker, 4)
        tracker.mark_conflict(pivot, o1)
        tracker.mark_conflict(pivot, o2)  # out := self
        tracker.mark_conflict(t_in, pivot)
        assert tracker.check_commit(pivot) is True

    def test_after_commit_replaces_committed_refs_with_self(self):
        # Fig 3.10 lines 9-12.
        tracker = EnhancedConflictTracker()
        t_in, pivot, t_out = fresh(tracker, 3)
        tracker.mark_conflict(t_in, pivot)
        t_in.commit(ts=5)
        tracker.mark_conflict(pivot, t_out)
        pivot.commit(ts=10)
        tracker.after_commit(pivot)
        assert pivot.in_conflict is pivot      # t_in committed -> self
        assert pivot.out_conflict is t_out     # t_out active -> kept

    def test_committed_pivot_with_dangerous_out_kills_new_reader(self):
        # Fig 3.9 lines 3-7.
        tracker = EnhancedConflictTracker()
        reader, pivot, t_out = fresh(tracker, 3)
        tracker.mark_conflict(pivot, t_out)
        t_out.commit(ts=5)
        pivot.commit(ts=10)
        victim = tracker.mark_conflict(reader, pivot)
        assert victim is reader

    def test_committed_pivot_with_later_out_spares_reader(self):
        tracker = EnhancedConflictTracker()
        reader, pivot, t_out = fresh(tracker, 3)
        tracker.mark_conflict(pivot, t_out)
        pivot.commit(ts=10)
        tracker.after_commit(pivot)
        t_out.commit(ts=20)  # out commits after the pivot
        victim = tracker.mark_conflict(reader, pivot)
        assert victim is None

    def test_stats_counted(self):
        tracker = EnhancedConflictTracker()
        t1, t2 = fresh(tracker, 2)
        tracker.mark_conflict(t1, t2)
        assert tracker.stats["marked"] == 1


class TestFactory:
    def test_make_tracker_selects_implementation(self):
        assert isinstance(make_tracker(precise=True), EnhancedConflictTracker)
        assert isinstance(make_tracker(precise=False), BasicConflictTracker)

    def test_victim_policy_by_name(self):
        tracker = make_tracker(precise=False, victim_policy="youngest")
        young, old = FakeTxn(begin_ts=100), FakeTxn(begin_ts=1)
        for txn in (young, old):
            tracker.init_transaction(txn)
        # Make both pivots with mutual conflicts: youngest must die.
        tracker.mark_conflict(young, old)
        victim = tracker.mark_conflict(old, young)
        assert victim is young
