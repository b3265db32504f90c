"""Engine-level behaviour of the chunked scan kernel.

Covers what the storage tests cannot: one lock-table entry per scan,
``siread_budget`` escalation folding point reads and key ranges into one
range (phantom detection through the fold), and the incremental
vacuum's ``vacuum_pause_events`` counter.
"""

from __future__ import annotations

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
