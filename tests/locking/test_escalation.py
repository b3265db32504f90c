"""Lock-manager unit tests for SIREAD escalation.

``LockManager.escalate`` folds a victim's pure record and range SIREADs
on each table into one key range over their span; the range carries a
*weight* — itself plus every sentinel it absorbed — so observability
totals and the release-path return values stay comparable before and
after escalation.
"""

from dataclasses import dataclass

import pytest

from repro.locking.manager import (
    LockManager,
    range_resource,
    record_resource,
)
from repro.locking.modes import LockMode

SIREAD, X = LockMode.SIREAD, LockMode.EXCLUSIVE


@dataclass
class Owner:
    id: int
    begin_ts: int = 0


@pytest.fixture
def lm():
    return LockManager()


def hold_records(lm, owner, keys, table="t"):
    fine = [record_resource(table, key) for key in keys]
    for resource in fine:
        assert lm.acquire(owner, resource, SIREAD).granted
    return fine


def held(lm, owner):
    return {lock.resource for lock in lm.locks_held_by(owner)}


class TestPromote:
    def test_promote_replaces_fine_with_one_coarse(self, lm):
        owner = Owner(1)
        hold_records(lm, owner, range(5))
        assert lm.table_size() == 5
        lm.escalate(budget=1)
        assert held(lm, owner) == {range_resource("t", 0, 4)}
        assert lm.table_size() == 1
        assert lm.escalated_lock_count() == 1
        assert lm.stats["escalations"] == 1
        assert lm.stats["escalated_records"] == 5
        assert lm._ranges["t"], "writers could not find the fold"

    def test_promote_nothing_held_is_a_clean_noop(self, lm):
        owner = Owner(1)
        assert lm.acquire(owner, record_resource("t", 0), X).granted
        lm.escalate(budget=0)  # over budget, but nothing is foldable
        assert lm.table_size() == 1
        assert lm.escalated_lock_count() == 0
        assert lm.stats["escalations"] == 0

    def test_writer_probe_sees_coarse_sentinel(self, lm):
        """A key the reader never read, inside the span, reaches it."""
        reader, writer = Owner(1), Owner(2)
        hold_records(lm, reader, (0, 2, 8))
        lm.escalate(budget=0)
        conflicts = lm.probe_ranges(writer, "t", 5)
        assert [lock.owner.id for lock in conflicts] == [reader.id]
        assert lm.holds_range_over(reader, "t", 5)


class TestFoldSpan:
    def test_fold_lands_exactly_on_the_span(self, lm):
        """Records and ranges fold to [min lo, max hi] — nothing wider."""
        owner, writer = Owner(1), Owner(2)
        hold_records(lm, owner, (3, 20))
        lm.acquire_range(owner, "t", 5, 12)
        lm.escalate(budget=0)
        assert held(lm, owner) == {range_resource("t", 3, 20)}
        assert not lm.probe_ranges(writer, "t", 2)
        assert not lm.probe_ranges(writer, "t", 21)
        assert lm.probe_ranges(writer, "t", 3)
        assert lm.probe_ranges(writer, "t", 20)

    def test_open_end_stays_open(self, lm):
        owner = Owner(1)
        hold_records(lm, owner, (9,))
        lm.acquire_range(owner, "t", None, 4)
        lm.escalate(budget=0)
        assert held(lm, owner) == {range_resource("t", None, 9)}

    def test_unordered_bounds_fold_to_the_whole_table(self, lm):
        owner = Owner(1)
        hold_records(lm, owner, ("a", 3))
        lm.escalate(budget=0)
        assert held(lm, owner) == {range_resource("t", None, None)}

    def test_each_table_folds_on_its_own(self, lm):
        owner = Owner(1)
        hold_records(lm, owner, (1, 2), table="t")
        hold_records(lm, owner, (7, 9), table="u")
        lm.escalate(budget=0)
        assert held(lm, owner) == {
            range_resource("t", 1, 2), range_resource("u", 7, 9),
        }

    def test_mixed_mode_and_lone_sentinels_stay_put(self, lm):
        owner = Owner(1)
        hold_records(lm, owner, (1, 5), table="t")
        assert lm.acquire(owner, record_resource("t", 5), X).granted
        lm.acquire_range(owner, "u", 0, 9)
        lm.escalate(budget=0)
        assert held(lm, owner) == {
            record_resource("t", 1), record_resource("t", 5),
            range_resource("u", 0, 9),
        }
        assert lm.stats["escalations"] == 0

    def test_busiest_owner_folds_first_and_budget_stops_it(self, lm):
        busy, quiet = Owner(1), Owner(2)
        hold_records(lm, busy, range(4))
        hold_records(lm, quiet, (10, 11))
        lm.escalate(budget=3)  # 6 -> 3 after the busy owner's fold
        assert held(lm, busy) == {range_resource("t", 0, 3)}
        assert len(held(lm, quiet)) == 2

    def test_rescan_of_a_fold_collects_writers_granted_before_it(self, lm):
        """A writer granted inside the span before the fold met only the
        absorbed sentinels; a later scan of exactly the folded range must
        still report it."""
        reader, writer = Owner(1), Owner(2)
        assert lm.acquire(writer, record_resource("t", 5), X).granted
        hold_records(lm, reader, (0, 10))
        lm.escalate(budget=0)
        conflicts = lm.acquire_range(reader, "t", 0, 10)
        assert [lock.owner.id for lock in conflicts] == [writer.id]


class TestWeightedDrop:
    def test_drop_counts_records_an_escalated_lock_replaced(self, lm):
        """The lone range left after escalation must report the locks it
        stands for, not 1."""
        owner = Owner(1)
        hold_records(lm, owner, range(5))
        lm.escalate(budget=0)
        dropped = lm.drop_siread_locks(owner)
        assert dropped == 6  # the range itself + 5 records absorbed
        assert lm.stats["siread_dropped"] == 6
        assert lm.table_size() == 0
        assert lm.siread_lock_count() == 0
        assert lm.escalated_lock_count() == 0

    def test_refold_accumulates_weight(self, lm):
        """A second fold absorbs the first range, whose weight joins the
        new range's through the surplus."""
        owner = Owner(1)
        hold_records(lm, owner, range(5))
        lm.escalate(budget=0)
        hold_records(lm, owner, (9,))
        lm.escalate(budget=0)
        assert held(lm, owner) == {range_resource("t", 0, 9)}
        assert lm.stats["escalated_records"] == 5 + 2
        dropped = lm.drop_siread_locks(owner)
        assert dropped == 8  # new range + old range (carrying 6) + record 9
        assert lm.stats["siread_dropped"] == 8
        assert lm.escalated_lock_count() == 0

    def test_refold_onto_the_same_span_keeps_its_weight(self, lm):
        owner = Owner(1)
        hold_records(lm, owner, (0, 4))
        lm.escalate(budget=0)
        hold_records(lm, owner, (2,))
        lm.escalate(budget=0)
        assert held(lm, owner) == {range_resource("t", 0, 4)}
        assert lm.drop_siread_locks(owner) == 4

    def test_unescalated_drop_is_unweighted(self, lm):
        owner = Owner(1)
        hold_records(lm, owner, range(3))
        assert lm.drop_siread_locks(owner) == 3
        assert lm.stats["siread_dropped"] == 3
