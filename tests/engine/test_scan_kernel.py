"""Engine-level behaviour of the chunked scan kernel.

Covers what the storage tests cannot: one lock-table entry per scan and
prefix scan, ``siread_budget`` escalation folding point reads and key
ranges into one range (phantom detection through the fold), the
incremental vacuum's ``vacuum_pause_events`` counter, and
``scan_prefix`` — its first-N semantics and the cut-point guarantee
(inserts at or below the cut raise the rw edge, inserts past the cut
cannot change the answer and raise none).
"""

from __future__ import annotations

import pytest

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.locking.manager import range_resource

from tests.conftest import fill


def make_db(**overrides) -> Database:
    return Database(EngineConfig(record_history=True, **overrides))


def fill_range(db, table, n, step=10):
    fill(db, table, {i * step: f"v{i}" for i in range(n)})


class TestVacuumPauseEvents:
    def test_counter_counts_latch_drops(self, monkeypatch):
        monkeypatch.setattr("repro.storage.table.VACUUM_CHUNK_SIZE", 16)
        db = make_db()
        fill_range(db, "t", 100, step=1)
        writer = db.begin("si")
        for key in range(100):
            db.write(writer, "t", key, "updated")
        writer.commit()
        removed = db.vacuum()
        assert removed == 100  # every loaded version is below the horizon
        # 100 chains / 16 per hold = 7 holds -> 6 pauses.
        assert db.stats["vacuum_pause_events"] == 6


class TestScanEscalation:
    """A SIREAD scan adds one key-range entry to the lock table however
    many rows it reads, so a scan alone never trips ``siread_budget``.
    Escalation still bounds the table: point-read SIREADs and key ranges
    fold into one range over their span — and the fold still catches
    phantoms."""

    def test_wide_scan_ends_within_budget(self):
        """A 200-row SSI scan adds exactly one lock-table entry (it used
        to park 2·rows+1 = 401 record and gap SIREADs), with or without a
        budget, and nothing escalates."""
        for budget in (None, 4):
            db = make_db(siread_budget=budget)
            fill_range(db, "t", 200, step=1)
            reader = db.begin("ssi")
            rows = db.scan(reader, "t")
            assert len(rows) == 200
            assert db.locks.table_size() == 1
            assert db.locks.stats["escalations"] == 0
            db.abort(reader)

    def test_scan_within_budget_stays_record_granular(self):
        db = make_db(siread_budget=50)
        fill_range(db, "t", 10, step=1)
        reader = db.begin("ssi")
        db.scan(reader, "t")
        assert db.locks.stats["escalations"] == 0
        db.abort(reader)

    def test_insert_after_escalated_scan_raises_rw_edge(self):
        """Point reads past the budget escalate, folding the reader's key
        range and its record SIREADs into one range over their span: a
        writer inserting into the scanned range is caught by the fold."""
        db = make_db(siread_budget=2)
        fill_range(db, "t", 20, step=10)
        reader = db.begin("ssi")
        db.scan(reader, "t", 100, 150)
        for key in range(0, 30, 10):
            db.read(reader, "t", key)
        assert db.locks.table_size() <= 2
        assert list(db.locks._ranges["t"]) == [
            range_resource("t", 0, 150)
        ], "the range was not folded"
        writer = db.begin("ssi")
        db.insert(writer, "t", 125, "phantom")
        writer.commit()
        assert reader.out_conflict, "escalated SIREAD missed the phantom"
        assert writer.in_conflict
        db.abort(reader)

    @pytest.mark.parametrize("phantom_key", [5, 45, 90 - 1])
    def test_prefix_scan_ends_within_budget(self, phantom_key):
        """``scan_prefix`` adds one key-range entry too, [lo, cut], so it
        ends within a budget of 4 without escalating, and an insert at or
        below the cut key (90) is still detected."""
        db = make_db(siread_budget=4)
        fill_range(db, "t", 20, step=10)
        reader = db.begin("ssi")
        rows = db.scan_prefix(reader, "t", limit=10)
        assert [key for key, _ in rows] == list(range(0, 100, 10))
        assert db.locks.table_size() == 1
        writer = db.begin("ssi")
        db.insert(writer, "t", phantom_key, "phantom")
        writer.commit()
        assert reader.out_conflict, (
            f"insert of {phantom_key} below the cut escaped the range"
        )
        assert writer.in_conflict
        db.abort(reader)


class TestScanPrefixSemantics:
    def test_first_n_matches_scan_with_limit(self):
        db = make_db()
        fill_range(db, "t", 12)
        txn = db.begin("ssi")
        assert db.scan_prefix(txn, "t", limit=5) == db.scan(
            txn, "t", limit=5
        )
        db.abort(txn)

    def test_limit_zero_returns_nothing(self):
        db = make_db()
        fill_range(db, "t", 5)
        txn = db.begin("ssi")
        assert db.scan_prefix(txn, "t", limit=0) == []
        db.abort(txn)

    def test_limit_beyond_range_returns_all(self):
        db = make_db()
        fill_range(db, "t", 4)
        txn = db.begin("ssi")
        rows = db.scan_prefix(txn, "t", limit=100)
        assert [key for key, _ in rows] == [0, 10, 20, 30]
        db.abort(txn)

    def test_skips_invisible_rows_when_counting(self):
        """Tombstoned rows are examined (and locked) but do not count
        toward the limit — the result is the first N *visible* rows."""
        db = make_db()
        fill_range(db, "t", 6)
        deleter = db.begin("si")
        db.delete(deleter, "t", 10)
        deleter.commit()
        txn = db.begin("ssi")
        rows = db.scan_prefix(txn, "t", limit=3)
        assert [key for key, _ in rows] == [0, 20, 30]
        db.abort(txn)

    def test_own_write_fallback_sees_pending_insert(self):
        db = make_db()
        fill_range(db, "t", 4)
        txn = db.begin("ssi")
        db.insert(txn, "t", 15, "mine")
        rows = db.scan_prefix(txn, "t", limit=3)
        assert [key for key, _ in rows] == [0, 10, 15]
        db.abort(txn)


class TestScanPrefixCutPoint:
    """The satellite's interleaving guarantee: reader takes the first 3
    of {10,20,30,40,50}; a concurrent insert at or below the cut key (30)
    lands in a locked gap and raises the rw-antidependency, while an
    insert strictly past the cut leaves the reader untouched — it cannot
    change what "the first 3 visible rows" were."""

    def setup_reader(self):
        db = make_db()
        fill(db, "t", {10: "a", 20: "b", 30: "c", 40: "d", 50: "e"})
        reader = db.begin("ssi")
        rows = db.scan_prefix(reader, "t", limit=3)
        assert [key for key, _ in rows] == [10, 20, 30]
        return db, reader

    @pytest.mark.parametrize("phantom_key", [5, 15, 25, 30 - 1])
    def test_insert_at_or_below_cut_is_detected(self, phantom_key):
        db, reader = self.setup_reader()
        writer = db.begin("ssi")
        db.insert(writer, "t", phantom_key, "phantom")
        writer.commit()
        assert reader.out_conflict, (
            f"insert of {phantom_key} below the cut point must raise the "
            "reader->writer rw edge"
        )
        assert writer.in_conflict
        db.abort(reader)

    @pytest.mark.parametrize("phantom_key", [35, 45, 60])
    def test_insert_past_cut_is_admitted(self, phantom_key):
        db, reader = self.setup_reader()
        writer = db.begin("ssi")
        db.insert(writer, "t", phantom_key, "later")
        writer.commit()
        assert not reader.out_conflict, (
            f"insert of {phantom_key} past the cut cannot affect the "
            "prefix and must not raise an edge"
        )
        reader.commit()

    def test_exhausted_prefix_locks_boundary_gap(self):
        """When the range runs out before the limit, the boundary gap is
        locked exactly like a full scan — appends are still phantoms."""
        db, reader = self.setup_reader()
        rows = db.scan_prefix(reader, "t", lo=40, hi=None, limit=10)
        assert [key for key, _ in rows] == [40, 50]
        writer = db.begin("ssi")
        db.insert(writer, "t", 70, "append")
        writer.commit()
        assert reader.out_conflict
        db.abort(reader)
