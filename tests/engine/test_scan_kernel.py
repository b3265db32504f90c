"""Engine-level behaviour of the chunked scan kernel (PR 10).

Covers what the storage tests cannot: the page-granularity SIREAD
threshold (bounded lock-table cost, phantom detection through coarse
probes), the incremental vacuum's ``vacuum_pause_events`` counter, and
``scan_prefix`` — its first-N semantics and the cut-point guarantee
(inserts at or below the cut raise the rw edge, inserts past the cut
cannot change the answer and raise none).
"""

from __future__ import annotations

import pytest

from repro.engine.config import EngineConfig
from repro.engine.database import Database

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


class TestPageThreshold:
    def test_wide_scan_lock_count_bounded(self):
        """A record-granularity SSI scan crossing the threshold covers
        leaf pages, not rows: lock-table size stays ~rows/page_order
        instead of ~2x rows."""
        db = make_db(scan_page_lock_threshold=8)
        fill_range(db, "t", 200, step=1)
        reader = db.begin("ssi")
        rows = db.scan(reader, "t")
        assert len(rows) == 200
        paged = db.locks.table_size()
        assert paged < 40  # ~200/64-order leaves, not 401 rec+gap locks
        db.abort(reader)
        db.cleanup_suspended()

        record_db = make_db(scan_page_lock_threshold=None)
        fill_range(record_db, "t", 200, step=1)
        reader = record_db.begin("ssi")
        record_db.scan(reader, "t")
        assert record_db.locks.table_size() > 200
        db.abort(reader)

    def test_narrow_scan_stays_record_granular(self):
        db = make_db(scan_page_lock_threshold=50)
        fill_range(db, "t", 10, step=1)
        reader = db.begin("ssi")
        db.scan(reader, "t")
        assert not reader.coarse_sireads
        db.abort(reader)

    def test_insert_after_page_scan_raises_rw_edge(self):
        """Phantom protection survives the coarsening: a writer inserting
        into the scanned range probes the reader's page SIREADs."""
        db = make_db(scan_page_lock_threshold=4)
        fill_range(db, "t", 20, step=10)
        reader = db.begin("ssi")
        db.scan(reader, "t")
        assert reader.coarse_sireads
        writer = db.begin("ssi")
        db.insert(writer, "t", 55, "phantom")
        writer.commit()
        assert reader.out_conflict, "page SIREAD missed the phantom insert"
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
