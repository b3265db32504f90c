"""Key-range locks: the symmetric probe, its precision and its residue.

A scan of ``[lo, hi]`` holds one key-range lock in its read mode.  A
writer meets the ranges covering its key in the critical section of its
EXCLUSIVE record acquire; a reader places its range and collects the
EXCLUSIVE record holders inside it in one critical section, before it
materialises any rows.  Whichever side runs second sees the other, so
every rw edge below is recorded exactly once — for updates, deletes,
inserts and blind writes of brand-new keys, against active and
committed-suspended readers, with the writer granted before or after the
range was placed.  Under S2PL the side that runs second waits instead.
"""

from __future__ import annotations

import sys

import pytest

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.errors import LockWaitRequired, TransactionAbortedError
from repro.exec import run_threaded_stress
from repro.sgt.checker import check_serializable
from repro.sim.ops import Scan, Write
from repro.sim.workload import Mix, Workload

from tests.conftest import commit_outcomes, fill

LEVELS = ("ssi", "sgt")
ROWS = {10: "a", 20: "b", 30: "c", 40: "d", 50: "e"}
LO, HI = 15, 45

#: one write per kind, each on a key inside [LO, HI]
WRITES = {
    "update": lambda db, txn: db.write(txn, "t", 30, "updated"),
    "delete": lambda db, txn: db.delete(txn, "t", 30),
    "insert": lambda db, txn: db.insert(txn, "t", 25, "inserted"),
    "blind_write": lambda db, txn: db.write(txn, "t", 35, "blind"),
}


def make_db() -> Database:
    db = Database(EngineConfig(record_history=True))
    fill(db, "t", ROWS)
    fill(db, "pin", {0: 0})
    return db


def spy_edges(db: Database, monkeypatch) -> list[tuple[int, int]]:
    """Every rw edge offered to the policies, as (reader id, writer id)."""
    edges: list[tuple[int, int]] = []
    dispatch = db.dispatch_rw_edge

    def spy(reader, writer):
        edges.append((reader.id, writer.id))
        dispatch(reader=reader, writer=writer)

    monkeypatch.setattr(db, "dispatch_rw_edge", spy)
    return edges


def concurrent_pair(db: Database, level: str):
    """A reader and a writer whose snapshots both predate either commit."""
    reader, writer = db.begin(level), db.begin(level)
    db.get(reader, "pin", 0)
    db.get(writer, "pin", 0)
    return reader, writer


def edge_recorded(db: Database, level: str, reader, writer) -> bool:
    if level == "ssi":
        return bool(reader.out_conflict) and bool(writer.in_conflict)
    return writer.id in db.certifier._edges.get(reader.id, ())


class TestSymmetricProbe:
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("reader_state", ["active", "committed"])
    @pytest.mark.parametrize("granted", ["before", "after"])
    @pytest.mark.parametrize("kind", sorted(WRITES))
    def test_edge_recorded_exactly_once(
        self, monkeypatch, level, reader_state, granted, kind
    ):
        db = make_db()
        edges = spy_edges(db, monkeypatch)
        reader, writer = concurrent_pair(db, level)
        if granted == "before":
            WRITES[kind](db, writer)
        db.scan(reader, "t", LO, HI)
        if reader_state == "committed":
            reader.commit()
            assert reader.suspended, "the reader's range is not retained"
        if granted == "after":
            WRITES[kind](db, writer)
        assert edges.count((reader.id, writer.id)) == 1, edges
        assert edge_recorded(db, level, reader, writer)
        commit_outcomes(writer, reader)
        assert edges.count((reader.id, writer.id)) == 1, edges
        assert check_serializable(db.history).serializable

    @pytest.mark.parametrize("level", LEVELS)
    def test_writer_finished_before_placement_meets_newer_version_check(
        self, monkeypatch, level
    ):
        """A writer that committed and released everything before the
        range was placed leaves no lock to collide with; its installed
        version is newer than the reader's snapshot, and the Fig 3.4
        check on the resolved row reports the edge."""
        db = make_db()
        edges = spy_edges(db, monkeypatch)
        reader, writer = concurrent_pair(db, level)
        db.read(writer, "t", 50)  # keeps the committed writer findable
        WRITES["update"](db, writer)
        writer.commit()
        db.scan(reader, "t", LO, HI)
        assert edges.count((reader.id, writer.id)) == 1, edges
        db.abort(reader)


class TestPrecision:
    """The range is exactly the predicate: next-key gaps used to reach
    past it (the first row's gap down to its predecessor, the boundary
    gap up to the successor of ``hi``).  ``tests/engine/test_s2pl.py``
    pins the same precision for S2PL's SHARED range."""

    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("key", [12, 47])
    def test_insert_outside_the_range_raises_no_edge(
        self, monkeypatch, level, key
    ):
        db = make_db()
        edges = spy_edges(db, monkeypatch)
        reader, writer = concurrent_pair(db, level)
        db.scan(reader, "t", LO, HI)
        db.insert(writer, "t", key, "outside")
        assert (reader.id, writer.id) not in edges
        assert commit_outcomes(writer, reader) == ["commit", "commit"]

    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("key", [LO, HI])
    def test_insert_at_a_bound_raises_the_edge(self, monkeypatch, level, key):
        db = make_db()
        edges = spy_edges(db, monkeypatch)
        reader, writer = concurrent_pair(db, level)
        db.scan(reader, "t", LO, HI)
        db.insert(writer, "t", key, "on the bound")
        assert edges.count((reader.id, writer.id)) == 1


def crossed_scans(level: str):
    """T1 scans [0, 100] and T2 [150, 250]; each then blind-writes a new
    key into the other's range — write skew over predicates."""
    db = Database(EngineConfig(record_history=True))
    fill(db, "t", {10: 0, 90: 0, 160: 0, 240: 0})
    t1, t2 = db.begin(level), db.begin(level)
    db.scan(t1, "t", 0, 100)
    db.scan(t2, "t", 150, 250)
    return db, ((t1, 200), (t2, 55))


class TestBlindWritePhantom:
    """A blind ``write`` of a brand-new key must meet the other side's
    scan range: detected under SIREAD, waited for under S2PL.  Without
    that this write-skew over predicates committed both sides."""

    @pytest.mark.parametrize("level", LEVELS)
    def test_crossed_blind_writes_into_scanned_ranges(self, level):
        db, writes = crossed_scans(level)
        t1, t2 = (txn for txn, _key in writes)
        outcomes = []
        for txn, key in writes:
            try:
                db.write(txn, "t", key, "new")
            except TransactionAbortedError as error:
                outcomes.append(error.reason)
        outcomes += commit_outcomes(t1, t2)
        assert outcomes.count("commit") == 1, outcomes
        assert "unsafe" in outcomes, outcomes
        assert check_serializable(db.history).serializable

    def test_s2pl_blind_writes_meet_next_key_locks(self):
        """A new key's blind write meets the other scan's SHARED range
        exactly as an insert would, so one side blocks or aborts."""
        db, writes = crossed_scans("s2pl")
        stalled = []
        for txn, key in writes:
            try:
                db.write(txn, "t", key, "new")
            except (LockWaitRequired, TransactionAbortedError):
                stalled.append(txn.id)
        assert stalled, "both blind writes slipped past the scans' ranges"
        for txn, _key in writes:
            if txn.is_active:
                txn.abort()


class TestRangeIndexes:
    def test_exclusive_key_index_only_for_scanned_tables(self):
        db = make_db()
        writer = db.begin("ssi")
        db.write(writer, "pin", 0, 1)
        assert db.locks._exclusive_keys == {}
        reader = db.begin("ssi")
        db.scan(reader, "t", LO, HI)
        assert db.locks._exclusive_keys == {"t": []}
        db.write(writer, "t", 35, "blind")
        db.write(writer, "t", 20, "update")
        assert db.locks._exclusive_keys == {"t": [20, 35]}
        db.abort(writer)
        assert db.locks._exclusive_keys == {"t": []}
        db.abort(reader)

    @pytest.mark.parametrize("writer_first", [False, True])
    def test_failed_scan_does_not_fail_writers(self, writer_first):
        """A scan whose bounds the table's keys do not order against
        fails, as it always did; the range it leaves behind must not turn
        later writes to the table into the same error."""
        db = make_db()
        reader, writer = concurrent_pair(db, "ssi")
        if writer_first:
            db.write(writer, "t", 30, "updated")
        with pytest.raises(TypeError):
            db.scan(reader, "t", "a", "z")
        db.write(writer, "t", 20, "updated")
        assert commit_outcomes(writer) == ["commit"]

    def test_abort_of_range_holders_leaves_no_residue(self):
        db = make_db()
        reader, writer = concurrent_pair(db, "ssi")
        db.scan(reader, "t", LO, HI)
        db.scan(reader, "t", 10, 20)
        db.write(writer, "t", 30, "updated")
        db.abort(reader)
        db.abort(writer)
        assert_no_residue(db)

    def test_s2pl_range_with_a_queued_writer_leaves_no_residue(self):
        db = make_db()
        reader, writer = db.begin("s2pl"), db.begin("s2pl")
        db.scan(reader, "t", LO, HI)
        with pytest.raises(LockWaitRequired):
            WRITES["insert"](db, writer)
        db.abort(reader)
        WRITES["insert"](db, writer)
        assert commit_outcomes(writer) == ["commit"]
        assert_no_residue(db)

    @pytest.mark.parametrize("level", LEVELS)
    def test_commit_and_cleanup_of_range_holders_leaves_no_residue(
        self, level
    ):
        db = make_db()
        reader, writer = concurrent_pair(db, level)
        db.scan(reader, "t", LO, HI)
        db.scan(reader, "t", LO, None)
        reader.commit()
        assert db.locks._ranges["t"], "the committed reader's ranges went early"
        WRITES["insert"](db, writer)
        commit_outcomes(writer)
        db.cleanup_suspended()
        db.cleanup_suspended()
        assert_no_residue(db)


class TestThreadedRanges:
    """More client threads than cores and a shortened switch interval:
    each transaction scans a random window (bounded, or open to the end
    of the table), then
    writes one random key — an update, or a blind write of a brand-new
    key — that may land in another client's window.  A lost range probe
    or collection shows as a non-serializable history, a torn index as a
    leaked range or lock."""

    @staticmethod
    def workload() -> Workload:
        def setup(db):
            db.create_table("t")
            db.load("t", ((key, 0) for key in range(0, 120, 3)))

        def scan_then_write(rng):
            lo = rng.randrange(0, 100)
            rows = yield Scan("t", lo, lo + 20)
            yield Write("t", rng.randrange(0, 120), len(rows))

        def tail_then_write(rng):
            lo = rng.randrange(0, 100)
            rows = yield Scan("t", lo, None)
            yield Write("t", rng.randrange(0, 120), len(rows))

        return Workload("scan-then-write", setup, Mix([
            ("scan", 1.0, scan_then_write),
            ("tail", 1.0, tail_then_write),
        ]))

    @pytest.mark.parametrize("level", LEVELS + ("s2pl",))
    def test_scan_then_write_stays_serializable(self, level):
        databases = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            result = run_threaded_stress(
                self.workload(), level=level, threads=4, txns_per_thread=40,
                seed=26, check_serializability=True,
                on_database=databases.append,
            )
        finally:
            sys.setswitchinterval(interval)
        assert result.commits + result.aborts == result.txns == 160
        assert result.commits > 0
        assert result.serializable, result.serialization_detail
        (db,) = databases
        assert not any(db.locks._exclusive_keys.values())
        assert {
            resource: head
            for ranges in db.locks._ranges.values()
            for resource, head in ranges.items()
        } == {r: h for r, h in db.locks._heads.items() if r.kind == "range"}
        assert result.lock_table_clean, result.describe()
        assert_no_residue(db)


def assert_no_residue(db: Database) -> None:
    assert not any(db.locks.residue().values()), db.locks.residue()
    assert not any(db.locks._ranges.values())
    assert not any(db.locks._exclusive_keys.values())
