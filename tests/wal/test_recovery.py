"""Redo recovery tests: the crash-consistency contract."""

import pytest

from repro import Database, EngineConfig
from repro.wal import take_checkpoint
from repro.wal.log import WriteAheadLog
from repro.wal.recovery import recover_database, replay

from tests.conftest import fill


def make_db(flush_on_commit=True):
    wal = WriteAheadLog()
    db = Database(EngineConfig(wal_flush_on_commit=flush_on_commit), wal=wal)
    db.create_table("t")
    return db, wal


class TestCommitDurability:
    def test_committed_transactions_survive_crash(self):
        db, wal = make_db()
        txn = db.begin("ssi")
        txn.write("t", "a", 1)
        txn.insert("t", "b", 2)
        txn.commit()
        wal.crash()  # commit already flushed
        recovered = recover_database(wal)
        check = recovered.begin("si")
        assert check.read("t", "a") == 1
        assert check.read("t", "b") == 2
        check.commit()

    def test_unflushed_commit_lost_on_crash(self):
        db, wal = make_db(flush_on_commit=False)
        txn = db.begin("ssi")
        txn.write("t", "a", 1)
        txn.commit()  # logged but not flushed
        wal.crash()
        recovered = recover_database(wal)
        recovered.create_table("t")  # schema survives outside the log
        check = recovered.begin("si")
        assert check.get("t", "a") is None
        check.commit()

    def test_aborted_transactions_never_recovered(self):
        db, wal = make_db()
        committed = db.begin("ssi")
        committed.write("t", "keep", 1)
        committed.commit()
        aborted = db.begin("ssi")
        aborted.write("t", "discard", 2)
        aborted.abort()
        wal.flush()
        recovered = recover_database(wal)
        check = recovered.begin("si")
        assert check.read("t", "keep") == 1
        assert check.get("t", "discard") is None
        check.commit()

    def test_uncommitted_in_flight_lost(self):
        db, wal = make_db()
        txn = db.begin("ssi")
        txn.write("t", "pending", 1)  # buffered; nothing logged yet
        wal.flush()
        recovered = recover_database(wal)
        recovered.create_table("t")  # schema survives outside the log
        check = recovered.begin("si")
        assert check.get("t", "pending") is None
        check.commit()


class TestVersionHistoryPreserved:
    def test_version_order_and_timestamps_survive(self):
        db, wal = make_db()
        for value in (1, 2, 3):
            txn = db.begin("ssi")
            txn.write("t", "k", value)
            txn.commit()
        recovered = recover_database(wal)
        chain = recovered.table("t").chain("k")
        assert [v.value for v in chain] == [3, 2, 1]
        original = db.table("t").chain("k")
        assert [v.commit_ts for v in chain] == [v.commit_ts for v in original]

    def test_deletes_recover_as_tombstones(self):
        db, wal = make_db()
        txn = db.begin("ssi")
        txn.insert("t", "gone", 1)
        txn.commit()
        txn = db.begin("ssi")
        txn.delete("t", "gone")
        txn.commit()
        recovered = recover_database(wal)
        check = recovered.begin("si")
        assert check.get("t", "gone") is None
        check.commit()
        assert recovered.table("t").chain("gone").latest().is_tombstone

    def test_clock_advances_past_recovered_history(self):
        db, wal = make_db()
        txn = db.begin("ssi")
        txn.write("t", "k", 1)
        txn.commit()
        recovered = recover_database(wal)
        new_txn = recovered.begin("ssi")
        new_txn.write("t", "k", 2)
        new_txn.commit()
        assert (
            recovered.table("t").chain("k").latest().commit_ts
            > db.table("t").chain("k").latest().commit_ts
        )


class TestReplayWithBase:
    def test_checkpoint_skips_prefix(self):
        db, wal = make_db()
        txn = db.begin("ssi")
        txn.write("t", "pre", 1)
        txn.commit()
        wal.log_checkpoint()
        wal.flush()
        txn = db.begin("ssi")
        txn.write("t", "post", 2)
        txn.commit()

        # Base database holds the checkpointed state.
        base = Database(EngineConfig())
        base.create_table("t")
        base.load("t", [("pre", 1)])
        recovered = replay(wal, base=base)
        check = recovered.begin("si")
        assert check.read("t", "pre") == 1
        assert check.read("t", "post") == 2
        check.commit()

    def test_fresh_recovery_replays_commits_before_a_checkpoint(self):
        """An empty base holds nothing, so every durable commit is
        replayed — the ones logged before a checkpoint record too."""
        db, wal = make_db()
        for key, value in (("a", 1), ("b", 2)):
            txn = db.begin("ssi")
            txn.write("t", key, value)
            txn.commit()
        take_checkpoint(db)
        txn = db.begin("ssi")
        txn.write("t", "c", 3)
        txn.commit()
        recovered = recover_database(wal)
        check = recovered.begin("si")
        assert dict(check.scan("t")) == {"a": 1, "b": 2, "c": 3}
        check.commit()

    def test_tables_created_on_demand(self):
        wal = WriteAheadLog()
        wal.log_write(1, "brand_new", "k", "v")
        wal.log_commit(1, 3)
        wal.flush()
        recovered = recover_database(wal)
        check = recovered.begin("si")
        assert check.read("brand_new", "k") == "v"
        check.commit()


    def test_recovered_database_never_reuses_a_logged_txn_id(self):
        """A database recovered onto the log it keeps writing must not
        log a second txn 1: redo groups writes by id."""
        db, wal = make_db()
        txn = db.begin("ssi")
        txn.write("t", "a", "first")
        txn.write("t", "b", "first")
        txn.commit()

        recovered = replay(wal, base=Database(EngineConfig(), wal=wal))
        for key, value in (("a", "second"), ("b", "third")):
            txn = recovered.begin("ssi")
            txn.write("t", key, value)
            txn.commit()
        assert len(set(wal.committed_txn_ids())) == 3

        again = recover_database(wal)
        check = again.begin("si")
        assert dict(check.scan("t")) == {"a": "second", "b": "third"}
        check.commit()


class TestEndToEnd:
    def test_workload_survives_crash_recover_cycle(self):
        """Run SmallBank-ish traffic, crash, recover, compare state."""
        import random

        from repro.sim.direct import run_program
        from repro.workloads.smallbank import make_smallbank
        from repro.errors import ConstraintError, TransactionAbortedError

        wal = WriteAheadLog()
        db = Database(EngineConfig(), wal=wal)
        workload = make_smallbank(customers=10)
        workload.setup(db)
        rng = random.Random(5)
        for _round in range(40):
            _name, program = workload.next_transaction(rng)
            try:
                run_program(db, program, isolation="ssi")
            except (ConstraintError, TransactionAbortedError):
                pass
        wal.crash()

        # Recovery starts from the loaded snapshot (bulk loads are not
        # logged) and replays the committed traffic.
        base = Database(EngineConfig())
        workload.setup(base)
        recovered = replay(wal, base=base)
        for table in ("saving", "checking"):
            for cid in range(10):
                original = db.table(table).chain(cid).latest().value
                replayed = recovered.table(table).chain(cid).latest().value
                assert original == replayed, (table, cid)
