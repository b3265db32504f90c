"""Group commit: concurrent commits share log flushes, and no commit
waits on another in the engine.

Covers the contracts of :mod:`repro.engine.commit` with the flush
sharing of :mod:`repro.wal.log`: commits that append while another
commit's flush is in its fsync share the next flush under the default
configuration; a committer waiting for its flush is already committed
for certification, so a dangerous structure it completes aborts the
later committer; read-only commits never touch the log; sessions commit
without suspending; and the whole pipeline stays MVSG-serializable
with clean lock tables.

Groups are staged, not waited for: one committer is held inside its
fsync (``GatedWAL``) and the others commit behind it on threads.
"""

import asyncio

import pytest

from repro import Database, EngineConfig
from repro.errors import (
    TransactionAbortedError,
    TransactionStateError,
    UnsafeError,
)
from repro.sgt.checker import check_serializable
from repro.wal.records import CommitRecord
from tests.conftest import (
    GatedWAL,
    commit_as_group,
    commit_behind,
    held_flush,
    join_all,
    on_thread,
)


def make_db(**overrides):
    db = Database(EngineConfig(record_history=True, **overrides), wal=GatedWAL())
    db.create_table("t")
    return db


def writer(db, key, value=1, level="ssi"):
    txn = db.begin(level)
    txn.write("t", key, value)
    return txn


def wal_counters(db):
    return db.metrics.snapshot()["counters"]["wal"]


class TestSharedFlush:
    def test_default_config_shares_flushes(self):
        """No knob turns this on: with ``EngineConfig()`` commits that
        append behind a flush in progress share the next one."""
        db = Database(EngineConfig(), wal=GatedWAL())
        db.create_table("t")
        others = [writer(db, ("f", k)) for k in range(5)]
        commit_as_group(db, writer(db, ("held", 0)), others)
        assert all(txn.is_committed for txn in others)
        assert db.stats["commits"] == 6
        assert wal_counters(db) == {"appends": 12, "flushes": 2}

    def test_a_committer_waits_in_the_log_with_its_locks_held(self):
        """Behind a held flush a committer is committed — its versions
        visible, its records appended — but blocks inside the log, not
        in the engine, and keeps its locks until its flush returns."""
        db = make_db()
        behind = writer(db, "b", level="s2pl")
        with held_flush(db, writer(db, "held")) as raised:
            started = commit_behind(db, behind)
            thread, _errors = started[0]
            thread.join(timeout=0.2)
            assert thread.is_alive(), "the commit returned unflushed"
            assert behind.is_committed
            assert db.wal.flushed_lsn < behind.commit_lsn
            assert db.locks.locks_held_by(behind)
            peek = db.begin("si")
            assert peek.read("t", "b") == 1
            peek.commit()
        assert not raised and not join_all(started)
        assert db.wal.flushed_lsn >= behind.commit_lsn
        assert not db.locks.locks_held_by(behind)

    def test_many_committers_share_one_flush(self):
        db = make_db()
        count = 20
        others = [writer(db, ("f", k), k) for k in range(count)]
        commit_as_group(db, writer(db, ("held", 0)), others)
        assert all(txn.is_committed for txn in others)
        assert wal_counters(db)["flushes"] == 2
        assert check_serializable(db.history).serializable
        assert db.locks.table_size() == 0

    def test_one_shared_flush_per_group(self):
        db = make_db()
        rounds = 4
        for r in range(rounds):
            commit_as_group(
                db,
                writer(db, ("held", r)),
                [writer(db, ("f", r, k)) for k in range(3)],
            )
        assert db.stats["commits"] == rounds * 4
        # One flush for each held commit, one per group behind it.
        assert wal_counters(db)["flushes"] == 2 * rounds

    def test_si_writers_share_the_flush(self):
        """SI does not certify but does write: its flush is shared too."""
        db = make_db()
        member = writer(db, "a", level="si")
        commit_as_group(db, writer(db, "held"), [member])
        assert member.is_committed
        assert wal_counters(db)["flushes"] == 2

    @pytest.mark.parametrize("level", ["ssi", "si"])
    def test_read_only_commits_neither_flush_nor_wait(self, level):
        """A read-only commit logs nothing, so it returns at once even
        while a flush is held — a certifying reader's SIREADs still
        count for later committers."""
        db = make_db()
        writer(db, "a").commit()
        counters = wal_counters(db)
        reader = db.begin(level)
        assert reader.read("t", "a") == 1
        with held_flush(db, writer(db, "held")):
            reader.commit()
            assert reader.is_committed
        assert wal_counters(db)["flushes"] == counters["flushes"] + 1

    @pytest.mark.parametrize(
        "knob", ["group_commit", "group_commit_max", "group_commit_wait_us"]
    )
    def test_removed_knob_is_a_type_error(self, knob):
        """Sharing flushes is how commit works, not a mode; no alias."""
        with pytest.raises(TypeError):
            EngineConfig(**{knob: True})


class TestCertificationBehindAFlush:
    def test_dangerous_structure_with_a_committer_waiting_for_its_flush(self):
        """Classic write skew: T1 reads x writes y, T2 reads y writes x.
        T1 commits behind a held flush; it is committed for
        certification before its flush returns, so T2, which would
        complete the dangerous structure, aborts."""
        db = make_db()
        db.load("t", [("x", 0), ("y", 0)])
        t1, t2 = db.begin("ssi"), db.begin("ssi")
        t1.read("t", "x")
        t2.read("t", "y")
        t1.write("t", "y", 1)
        t2.write("t", "x", 1)
        with held_flush(db, writer(db, "held")) as raised:
            started = commit_behind(db, t1)
            with pytest.raises(UnsafeError):
                db.commit(t2)
        assert not raised and not join_all(started)
        assert t1.is_committed and t2.is_aborted
        assert check_serializable(db.history).serializable
        db.cleanup_suspended()  # release retained SIREADs
        assert db.locks.table_size() == 0

    def test_doomed_committer_aborts_without_waiting_for_a_flush(self):
        """A transaction doomed before its commit call aborts on the doom
        check: it logs no commit record and does not wait behind the
        flush in progress."""
        db = make_db()
        victim = writer(db, "v")
        victim.doom_error = UnsafeError("doomed by test", txn_id=victim.id)
        with held_flush(db, writer(db, "held")) as raised:
            thread, errors = on_thread(db.commit, victim)
            thread.join(timeout=5)
            assert not thread.is_alive(), "the doomed commit waited for the flush"
        assert not raised
        assert [type(error) for error in errors] == [UnsafeError]
        assert victim.is_aborted and not victim.commit_lsn
        assert victim.id not in {
            record.txn_id
            for record in db.wal.records(durable_only=False)
            if isinstance(record, CommitRecord)
        }
        check = db.begin("si")
        assert check.get("t", "v") is None
        check.commit()

    def test_already_finished_transaction_raises_state_error(self):
        db = make_db()
        txn = writer(db, "a")
        txn.commit()
        with pytest.raises(TransactionStateError):
            db.commit(txn)

    def test_first_committer_wins_still_enforced(self):
        """FCW is checked at write time (exclusive locks), so two
        writers of one key serialize before either commits — the commit
        entry must preserve the abort."""
        db = make_db(lock_timeout=0.5)
        db.load("t", [("z", 0)])
        a = db.begin("ssi")
        b = db.begin("ssi")
        b.get("t", "z")  # pin b's (deferred) snapshot before a commits
        a.write("t", "k", "a")
        a.commit()
        with pytest.raises(TransactionAbortedError):
            b.write("t", "k", "b")
            b.commit()
        check = db.begin("si")
        assert check.read("t", "k") == "a"
        check.commit()


class TestSessions:
    def test_session_commits_never_suspend(self):
        """Session committers on one event loop write and commit through
        the log; none suspends, since a commit raises no wait.  (Flushes
        shared by concurrent committers are OS-thread behaviour:
        ``TestSharedFlush`` covers them.)"""
        from repro.session import SessionScheduler
        from repro.sim.ops import Write

        db = make_db()
        scheduler = SessionScheduler(db)
        sessions = 12

        async def drive(index):
            session = scheduler.session()

            def program():
                yield Write("t", ("s", index), index)

            await session.invoke("run_program", program(), "ssi")
            await session.invoke("close")

        async def main():
            await asyncio.gather(*(drive(index) for index in range(sessions)))

        asyncio.run(main())
        scheduler.shutdown()
        waits = db.metrics.snapshot()["histograms"]["session_wait_time"]
        assert waits["count"] == 0  # no session ever suspended
        assert db.stats["commits"] == sessions
        assert db.wal.flushed_lsn == db.wal.last_lsn == 2 * sessions
        assert check_serializable(db.history).serializable
        assert db.locks.table_size() == 0


class TestLatchDebugCompat:
    def test_shared_flushes_under_checked_latches(self, monkeypatch):
        """REPRO_LATCH_DEBUG=1 swaps in rank-checking latches; the log
        append under the commit latch must satisfy them."""
        monkeypatch.setenv("REPRO_LATCH_DEBUG", "1")
        db = make_db()
        for r in range(4):
            commit_as_group(
                db,
                writer(db, ("held", r)),
                [writer(db, ("f", r, k)) for k in range(3)],
            )
        assert db.stats["commits"] == 16
        assert wal_counters(db)["flushes"] == 8
        assert check_serializable(db.history).serializable
