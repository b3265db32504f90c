"""Strict two-phase locking engine tests (paper Section 2.2.1)."""

import pytest

from repro import Database, DeadlockError, EngineConfig
from repro.engine.config import DeadlockMode
from repro.errors import LockWaitRequired
from repro.locking.manager import LockManager, RequestState, range_resource
from repro.sgt.checker import check_serializable
from repro.storage.table import Table

from tests.conftest import commit_outcomes, fill


class TestBlockingReads:
    def test_reader_blocks_behind_writer(self, db):
        fill(db, "t", {1: "a"})
        writer = db.begin("s2pl")
        writer.write("t", 1, "b")
        reader = db.begin("s2pl")
        with pytest.raises(LockWaitRequired) as wait:
            db.read(reader, "t", 1)
        writer.commit()
        assert wait.value.request.state is RequestState.GRANTED
        # S2PL reads current state: sees the committed value.
        assert db.read(reader, "t", 1) == "b"
        reader.commit()

    def test_writer_blocks_behind_reader(self, db):
        fill(db, "t", {1: "a"})
        reader = db.begin("s2pl")
        assert reader.read("t", 1) == "a"
        writer = db.begin("s2pl")
        with pytest.raises(LockWaitRequired):
            db.write(writer, "t", 1, "b")
        reader.commit()  # releases the shared lock
        db.write(writer, "t", 1, "b")
        writer.commit()

    def test_shared_readers_coexist(self, db):
        fill(db, "t", {1: "a"})
        r1, r2, r3 = (db.begin("s2pl") for _ in range(3))
        assert all(txn.read("t", 1) == "a" for txn in (r1, r2, r3))
        for txn in (r1, r2, r3):
            txn.commit()

    def test_repeatable_reads(self, db):
        fill(db, "t", {1: "a"})
        reader = db.begin("s2pl")
        assert reader.read("t", 1) == "a"
        writer = db.begin("s2pl")
        with pytest.raises(LockWaitRequired):
            db.write(writer, "t", 1, "b")  # blocked: repeatability holds
        assert reader.read("t", 1) == "a"
        reader.commit()
        writer.abort()


class TestDeadlocks:
    def test_immediate_detection_aborts_requester(self, db):
        fill(db, "t", {"a": 1, "b": 2})
        t1 = db.begin("s2pl")
        t2 = db.begin("s2pl")
        t1.write("t", "a", 10)
        t2.write("t", "b", 20)
        with pytest.raises(LockWaitRequired):
            db.write(t1, "t", "b", 11)  # t1 waits for t2
        with pytest.raises(DeadlockError):
            db.write(t2, "t", "a", 21)  # closes the cycle
        assert t2.is_aborted
        assert db.stats["aborts"]["deadlock"] == 1
        # t1's wait resolves once t2 aborted.
        db.write(t1, "t", "b", 11)
        t1.commit()

    def test_periodic_sweep_dooms_victim(self):
        db = Database(EngineConfig(deadlock_mode=DeadlockMode.PERIODIC))
        fill(db, "t", {"a": 1, "b": 2})
        t1 = db.begin("s2pl")
        t2 = db.begin("s2pl")
        t1.write("t", "a", 10)
        t2.write("t", "b", 20)
        with pytest.raises(LockWaitRequired):
            db.write(t1, "t", "b", 11)
        with pytest.raises(LockWaitRequired):
            db.write(t2, "t", "a", 21)
        victims = db.sweep_deadlocks()
        assert len(victims) == 1
        victim = victims[0]
        assert victim.doom_error is not None


class TestNextKeyLocking:
    """The phantom cases next-key locking used to cover, now met by the
    scan's one SHARED key range."""

    def test_scan_blocks_insert_into_range(self, db):
        fill(db, "t", {10: "a", 20: "b"})
        scanner = db.begin("s2pl")
        assert len(scanner.scan("t", 0, 30)) == 2
        inserter = db.begin("s2pl")
        with pytest.raises(LockWaitRequired):
            db.insert(inserter, "t", 15, "phantom")
        scanner.commit()
        db.insert(inserter, "t", 15, "phantom")
        inserter.commit()

    def test_insert_blocks_scan_over_gap(self, db):
        fill(db, "t", {10: "a", 20: "b"})
        inserter = db.begin("s2pl")
        inserter.insert("t", 15, "x")
        scanner = db.begin("s2pl")
        with pytest.raises(LockWaitRequired):
            db.scan(scanner, "t", 0, 30)
        inserter.commit()
        rows = scanner.scan("t", 0, 30)
        assert [key for key, _value in rows] == [10, 15, 20]
        scanner.commit()

    def test_insert_past_table_end_blocked_by_open_scan(self, db):
        fill(db, "t", {10: "a"})
        scanner = db.begin("s2pl")
        scanner.scan("t")  # open-ended: the range has no upper bound
        inserter = db.begin("s2pl")
        with pytest.raises(LockWaitRequired):
            db.insert(inserter, "t", 99, "x")
        scanner.commit()
        inserter.abort()

    def test_inserts_into_disjoint_gaps_do_not_block(self, db):
        fill(db, "t", {10: "a", 20: "b", 30: "c"})
        t1 = db.begin("s2pl")
        t2 = db.begin("s2pl")
        t1.insert("t", 15, "x")  # between 10 and 20
        t2.insert("t", 25, "y")  # between 20 and 30
        t1.commit()
        t2.commit()

    def test_concurrent_inserts_same_gap_do_not_block(self, db):
        """Two writers between the same rows never block each other."""
        fill(db, "t", {10: "a", 20: "b"})
        t1 = db.begin("s2pl")
        t2 = db.begin("s2pl")
        t1.insert("t", 14, "x")
        t2.insert("t", 16, "y")  # same neighbours, no block
        t1.commit()
        t2.commit()


class TestKeyRangeLocks:
    """An S2PL scan holds one blocking key range on exactly the predicate
    it evaluated."""

    @pytest.mark.parametrize("lo, hi, key", [(0, 12, 15), (7, 30, 3)])
    def test_insert_outside_the_predicate_is_granted(self, db, lo, hi, key):
        """Next-key gaps reached past the predicate: with rows {10, 20}
        a scan of [0, 12] locked the gap up to 20, and a scan of [7, 30]
        the gap down from 10."""
        fill(db, "t", {10: "a", 20: "b"})
        scanner = db.begin("s2pl")
        scanner.scan("t", lo, hi)
        inserter = db.begin("s2pl")
        db.insert(inserter, "t", key, "outside")
        assert commit_outcomes(inserter, scanner) == ["commit", "commit"]
        assert check_serializable(db.history).serializable

    def test_wide_scan_holds_one_lock(self, db):
        fill(db, "t", {key: key for key in range(512)})
        scanner = db.begin("s2pl")
        assert len(scanner.scan("t")) == 512
        assert db.locks.table_size() == 1
        (lock,) = db.locks.locks_held_by(scanner)
        assert lock.resource == range_resource("t", None, None)
        scanner.commit()
        assert db.locks.table_size() == 0

    def test_reader_never_waits_for_a_writer_queued_behind_its_range(self, db):
        """W is queued behind R's range; R scans again, point-reads W's
        key and commits with no deadlock, and W's write then goes
        through."""
        fill(db, "t", {10: "a", 20: "b", 30: "c"})
        reader, writer = db.begin("s2pl"), db.begin("s2pl")
        reader.scan("t", 0, 25)
        with pytest.raises(LockWaitRequired) as wait:
            db.write(writer, "t", 20, "new")
        assert reader.scan("t", 0, 25) == [(10, "a"), (20, "b")]
        assert reader.read("t", 20) == "b"
        reader.commit()
        assert wait.value.request.state is RequestState.GRANTED
        db.write(writer, "t", 20, "new")
        writer.commit()
        assert db.stats["aborts"]["deadlock"] == 0
        assert check_serializable(db.history).serializable

    def test_reader_skips_a_writer_its_range_holds_back(self, db):
        """W wrote 30, then queued behind R's range on 20.  A scan of R's
        over 30 does not wait for W — W already serializes after R — so R
        reads the committed 30 and commits, and W finishes afterwards."""
        fill(db, "t", {10: "a", 20: "b", 30: "c"})
        reader, writer = db.begin("s2pl"), db.begin("s2pl")
        reader.scan("t", 0, 25)
        db.write(writer, "t", 30, "new")
        with pytest.raises(LockWaitRequired):
            db.write(writer, "t", 20, "new")
        assert reader.scan("t", 26, 40) == [(30, "c")]
        assert reader.read("t", 30) == "c"
        reader.commit()
        db.write(writer, "t", 20, "new")
        writer.commit()
        assert db.stats["aborts"]["deadlock"] == 0
        assert check_serializable(db.history).serializable

    def test_scan_waits_for_an_in_flight_writer_without_holding_its_range(
        self, db
    ):
        """A writer granted before the scan is waited for through its
        record, and the scan's range is withdrawn meanwhile: the writer's
        next key inside the range does not deadlock against the scan."""
        fill(db, "t", {10: "a", 20: "b", 30: "c"})
        writer, reader = db.begin("s2pl"), db.begin("s2pl")
        db.write(writer, "t", 20, "new")
        with pytest.raises(LockWaitRequired):
            db.scan(reader, "t", 0, 40)
        assert db.locks.locks_held_by(reader) == []
        db.insert(writer, "t", 25, "more")
        writer.commit()
        assert [key for key, _ in reader.scan("t", 0, 40)] == [10, 20, 25, 30]
        reader.commit()
        assert check_serializable(db.history).serializable

    def test_a_writer_granted_off_a_withdrawn_range_waits_for_nobody(
        self, db, monkeypatch
    ):
        """G writes inside H's scan and queues on H's range; H withdraws
        the range to wait for W, which grants G, and G's retry takes its
        record.  H's rescan then waits for G — a plain wait, not a
        deadlock — and completes once G commits."""
        fill(db, "t", {1: "a", 2: "b", 3: "c"})
        w, g, h = db.begin("s2pl"), db.begin("s2pl"), db.begin("s2pl")
        db.write(w, "t", 3, "w")
        queued = []
        scan_chunks = Table.scan_chunks

        def write_inside_the_scan(table, lo, hi, *args):
            if not queued:
                with pytest.raises(LockWaitRequired) as wait:
                    db.write(g, "t", 2, "g")
                queued.append(wait.value.request)
            return scan_chunks(table, lo, hi, *args)

        monkeypatch.setattr(Table, "scan_chunks", write_inside_the_scan)
        with pytest.raises(LockWaitRequired) as first:
            db.scan(h, "t", 0, 4)
        assert queued[0].state is RequestState.GRANTED
        db.write(g, "t", 2, "g")
        w.commit()
        assert first.value.request.state is RequestState.GRANTED
        with pytest.raises(LockWaitRequired) as second:
            db.scan(h, "t", 0, 4)
        assert h.doom_error is None
        assert second.value.request.state is RequestState.WAITING
        assert db.locks.waits_for(h.id) == {g.id}
        g.commit()
        assert db.scan(h, "t", 0, 4) == [(1, "a"), (2, "g"), (3, "w")]
        h.commit()
        assert db.stats["aborts"]["deadlock"] == 0
        assert check_serializable(db.history).serializable

    def test_a_scan_that_waited_counts_once(self, db):
        """The retry of a scan that waited for an in-flight writer walks
        the range again; the scan is counted once, when a walk returns."""
        fill(db, "t", {1: "a", 2: "b", 3: "c"})
        writer, reader = db.begin("s2pl"), db.begin("s2pl")
        db.write(writer, "t", 2, "new")
        with pytest.raises(LockWaitRequired):
            db.scan(reader, "t", 0, 4)
        writer.commit()
        assert db.scan(reader, "t", 0, 4) == [(1, "a"), (2, "new"), (3, "c")]
        reader.commit()
        assert db.stats["scans"] == 1


class TestSerializability:
    def test_write_skew_impossible(self, db):
        """The Example 2 interleaving cannot happen: the second reader
        blocks behind the first writer."""
        fill(db, "acct", {"x": 50, "y": 50})
        t1 = db.begin("s2pl")
        t2 = db.begin("s2pl")
        t1.read("acct", "x")
        t1.read("acct", "y")
        t2.read("acct", "x")  # shared with t1's read: fine
        with pytest.raises(LockWaitRequired):
            # t1 cannot write x while t2 holds the shared lock...
            db.write(t1, "acct", "x", -20)
        t2.abort()
        db.write(t1, "acct", "x", -20)
        t1.commit()
        assert check_serializable(db.history).serializable

    def test_oracle_reports_a_phantom_once_range_waits_are_gone(
        self, db, monkeypatch
    ):
        """S2PL scans reach the MVSG oracle: with the writer's range wait
        cut out of the lock manager, two scan-then-insert transactions
        over one range both commit and the history is reported
        non-serializable."""
        monkeypatch.setattr(
            LockManager, "_shared_range_over",
            staticmethod(lambda ranges, owner_id, key: None),
        )
        fill(db, "t", {0: "a", 10: "b"})
        t0, t1 = db.begin("s2pl"), db.begin("s2pl")
        t0.scan("t", 0, 10)
        t1.scan("t", 0, 10)
        t0.insert("t", 5, "x")
        t1.insert("t", 6, "y")
        assert commit_outcomes(t0, t1) == ["commit", "commit"]
        assert not check_serializable(db.history).serializable
