"""The commit entry: lone leaders, follower groups, one flush per group.

Covers the group-commit contracts of :mod:`repro.engine.commit`:
a lone committer pays for no ticket and no batch, committers that
overlap a leader ride leader-run groups under the default configuration,
intra-batch dangerous structures abort the later arrival, doomed members
abort inside their group, a failing leader still drains its followers,
non-certifying empty-write transactions bypass the batcher, sessions
ride groups while suspended (and stay suspended when interrupted), and
the whole pipeline stays MVSG-serializable with clean lock tables.

Groups are staged, not waited for: a leader is parked inside its WAL
flush (``GatedWAL``) and the followers are queued behind it.
"""

import threading
import time

import pytest

from repro import Database, EngineConfig
from repro.engine import commit as pipeline
from repro.errors import (
    CompletionWaitRequired,
    TransactionAbortedError,
    TransactionStateError,
    UnsafeError,
)
from repro.sgt.checker import check_serializable
from tests.conftest import (
    GatedWAL,
    commit_as_group,
    held_leader,
    queue_behind,
)


def make_db(**overrides):
    db = Database(EngineConfig(record_history=True, **overrides), wal=GatedWAL())
    db.create_table("t")
    return db


def writer(db, key, value=1, level="ssi"):
    txn = db.begin(level)
    txn.write("t", key, value)
    return txn


def group_counters(db):
    return db.metrics.snapshot()["counters"]["group_commit"]


def batch_size_histogram(db):
    return db.metrics.snapshot()["histograms"]["group_commit_batch_size"]


class TestBatching:
    def test_single_committer_runs_no_batch(self, monkeypatch):
        """Alone, a committer leads itself through the serial body: no
        ticket, no ``_run_batch`` pass, no counter, no histogram."""
        def no_ticket(txn):
            raise AssertionError(f"lone commit of {txn.id} allocated a ticket")

        monkeypatch.setattr(pipeline, "_Ticket", no_ticket)
        db = make_db()
        for key in ("a", "b", "c"):
            txn = writer(db, key)
            txn.commit()
            assert txn._commit_ticket is None
        assert group_counters(db) == {
            "batches": 0, "batched_txns": 0, "batch_aborts": 0,
        }
        assert batch_size_histogram(db)["count"] == 0
        assert not db._leader_active
        check = db.begin("si")
        assert check.read("t", "a") == 1
        check.commit()

    def test_default_config_batches_held_followers(self):
        """No knob turns this on: with ``EngineConfig()`` commits that
        overlap a leader share one certification pass and one flush."""
        wal = GatedWAL()
        db = Database(EngineConfig(), wal=wal)
        db.create_table("t")
        followers = [writer(db, ("f", k)) for k in range(5)]
        commit_as_group(db, writer(db, ("leader", 0)), followers)
        assert all(txn.is_committed for txn in followers)
        assert db.stats["commits"] == 6
        assert wal.stats["flushes"] == 2 < db.stats["commits"]
        assert group_counters(db) == {
            "batches": 1, "batched_txns": 5, "batch_aborts": 0,
        }

    def test_batch_size_histogram_recorded(self):
        db = make_db()
        for size in (1, 3):
            commit_as_group(
                db,
                writer(db, ("leader", size)),
                [writer(db, ("f", size, k)) for k in range(size)],
            )
        histogram = batch_size_histogram(db)
        assert histogram["count"] == 2
        assert histogram["total"] == 4

    def test_follower_commit_raises_and_its_thread_blocks_through(self):
        """The engine never parks a follower: ``db.commit`` queues the
        ticket and raises the wait, and only ``txn.commit()``'s executor
        parks the thread, until the leader's verdict."""
        db = make_db()
        follower = writer(db, "f")
        outcome = []

        def commit_on_thread():
            follower.commit()  # blocks through the ticket
            outcome.append(follower.status.value)

        with held_leader(db, writer(db, "leader")) as raised:
            with pytest.raises(CompletionWaitRequired) as wait:
                db.commit(follower)
            assert wait.value.txn is follower
            assert wait.value.completion is follower._commit_ticket
            thread = threading.Thread(target=commit_on_thread)
            thread.start()
            thread.join(timeout=0.2)
            assert thread.is_alive() and not outcome  # the leader is held
        thread.join(timeout=10)
        assert not raised
        assert outcome == ["committed"]
        assert follower._commit_ticket is None

    def test_concurrent_committers_share_batches(self):
        """Followers parked on threads are released by the leader's one
        pass, and a queue longer than MAX_BATCH drains in several."""
        db = make_db()
        count = pipeline.MAX_BATCH + 4
        followers = [writer(db, ("f", k), k) for k in range(count)]
        failures = []

        def wait_for_verdict(txn):
            try:
                txn.commit()  # blocks through the queued ticket
            except BaseException as error:  # noqa: BLE001
                failures.append(error)

        waiters = [
            threading.Thread(target=wait_for_verdict, args=(txn,))
            for txn in followers
        ]
        with held_leader(db, writer(db, ("leader", 0))) as raised:
            queue_behind(db, *followers)
            for w in waiters:
                w.start()
        for w in waiters:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in waiters)
        assert not raised and not failures
        assert all(txn.is_committed for txn in followers)
        assert group_counters(db) == {
            "batches": 2, "batched_txns": count, "batch_aborts": 0,
        }
        assert check_serializable(db.history).serializable
        assert db.locks.table_size() == 0

    @pytest.mark.parametrize(
        "knob", ["group_commit", "group_commit_max", "group_commit_wait_us"]
    )
    def test_removed_knob_is_a_type_error(self, knob):
        """Group commit is how commit works, not a mode; no alias."""
        with pytest.raises(TypeError):
            EngineConfig(**{knob: True})


class TestGroupWalFlush:
    def test_one_flush_per_batch(self):
        db = make_db()
        rounds = 4
        for r in range(rounds):
            commit_as_group(
                db,
                writer(db, ("leader", r)),
                [writer(db, ("f", r, k)) for k in range(3)],
            )
        counters = group_counters(db)
        assert db.stats["commits"] == rounds * 4
        assert counters["batches"] == rounds
        # One flush for each leader's own commit, one per follower group.
        assert db.wal.stats["flushes"] == rounds + counters["batches"]
        assert db.wal.stats["flushes"] < db.stats["commits"]

    def test_read_only_members_do_not_flush(self):
        db = make_db()
        writer(db, "a").commit()
        flushes = db.wal.stats["flushes"]
        reader = db.begin("ssi")
        assert reader.read("t", "a") == 1
        reader.commit()
        assert db.wal.stats["flushes"] == flushes
        # Nor does a group made of readers only.
        member = db.begin("ssi")
        assert member.read("t", "a") == 1
        commit_as_group(db, writer(db, "b"), [member])
        assert member.is_committed
        assert group_counters(db)["batched_txns"] == 1
        assert db.wal.stats["flushes"] == flushes + 1  # the leader's own


class TestIntraBatchCertification:
    def test_dangerous_structure_across_batch_members(self):
        """Classic write skew: T1 reads x writes y, T2 reads y writes x,
        both commit in one group.  Arrival order is the victim rule: the
        later arrival completes the dangerous structure and aborts."""
        db = make_db()
        db.load("t", [("x", 0), ("y", 0)])
        t1, t2 = db.begin("ssi"), db.begin("ssi")
        t1.read("t", "x")
        t2.read("t", "y")
        t1.write("t", "y", 1)
        t2.write("t", "x", 1)
        commit_as_group(db, writer(db, "leader"), [t1, t2])
        db.commit(t1)
        with pytest.raises(UnsafeError):
            db.commit(t2)
        assert t1.is_committed and t2.is_aborted
        assert group_counters(db) == {
            "batches": 1, "batched_txns": 2, "batch_aborts": 1,
        }
        assert check_serializable(db.history).serializable
        db.cleanup_suspended()  # release retained SIREADs
        assert db.locks.table_size() == 0

    def test_doom_before_submit_aborts_without_batching(self, monkeypatch):
        """A transaction doomed before its commit call aborts on the
        doom check in front of ``_enter_batch`` — it never takes leadership
        and never occupies a group slot."""
        db = make_db()
        victim = writer(db, "v")
        victim.doom_error = UnsafeError("doomed by test", txn_id=victim.id)

        def no_entry(txn):
            raise AssertionError(f"doomed {txn.id} entered the batcher")

        monkeypatch.setattr(db, "_enter_batch", no_entry)
        with pytest.raises(UnsafeError):
            victim.commit()
        assert victim.is_aborted
        check = db.begin("si")
        assert check.get("t", "v") is None
        check.commit()

    def test_doomed_member_aborts_inside_its_group(self):
        """Doom that lands *after* the member queued but before the
        leader's pass: the leader takes the abort decision inside the
        batch and the ticket carries the doom error out."""
        db = make_db()
        victim = writer(db, "v")
        with held_leader(db, writer(db, "leader")) as raised:
            queue_behind(db, victim)
            victim.doom_error = UnsafeError(
                "doomed in flight", txn_id=victim.id
            )
        assert not raised
        with pytest.raises(UnsafeError):
            db.commit(victim)
        assert victim.is_aborted
        assert victim._commit_ticket is None
        assert group_counters(db)["batch_aborts"] == 1
        check = db.begin("si")
        assert check.get("t", "v") is None
        check.commit()

    def test_doomed_si_follower_gets_the_doom_error(self):
        """A non-certifying follower doomed in flight: its re-invoked
        commit consumes the ticket before the read-only bypass, which its
        rolled-back (now empty) write set would otherwise take."""
        db = make_db()
        victim = writer(db, "v", level="si")
        with held_leader(db, writer(db, "leader")) as raised:
            queue_behind(db, victim)
            victim.doom_error = UnsafeError(
                "doomed in flight", txn_id=victim.id
            )
        assert not raised
        with pytest.raises(UnsafeError):
            db.commit(victim)
        assert victim.is_aborted
        assert victim._commit_ticket is None

    def test_failing_leader_still_drains_its_followers(self, monkeypatch):
        """The leader's own commit fails certification (no flush to park
        it in, so its followers are queued from inside its ``_certify``):
        it raises UnsafeError *and* resolves everyone behind it."""
        db = make_db()
        leader = writer(db, ("l", 0))
        followers = [writer(db, ("f", k)) for k in range(3)]
        certify = db._certify

        def failing_certify(txn):
            if txn is leader:
                queue_behind(db, *followers)
                return UnsafeError("leader fails", txn_id=txn.id)
            return certify(txn)

        monkeypatch.setattr(db, "_certify", failing_certify)
        with pytest.raises(UnsafeError):
            db.commit(leader)
        assert leader.is_aborted
        assert not db._leader_active
        for txn in followers:
            db.commit(txn)  # resolved: consumes the verdict, no wait
            assert txn.is_committed
        assert group_counters(db) == {
            "batches": 1, "batched_txns": 3, "batch_aborts": 0,
        }
        assert db.locks.table_size() == 0

    def test_already_finished_member_raises_state_error(self):
        db = make_db()
        txn = writer(db, "a")
        txn.commit()
        with pytest.raises(TransactionStateError):
            db.commit(txn)

    def test_first_committer_wins_still_enforced(self):
        """FCW is checked at write time (exclusive locks), so two
        writers of one key serialize before the batcher ever sees them —
        the commit entry must preserve the abort."""
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


class TestBypass:
    def test_si_writers_still_batch(self):
        """SI doesn't certify but does write — its WAL flush amortises
        through the group too."""
        db = make_db()
        member = writer(db, "a", level="si")
        commit_as_group(db, writer(db, "leader"), [member])
        assert member.is_committed
        assert group_counters(db)["batched_txns"] == 1

    def test_read_only_certifying_txn_bypasses_nothing_it_needs(self):
        """A certifying reader goes through the batcher (its SIREADs
        feed later members' certification)."""
        db = make_db()
        writer(db, "a").commit()
        reader = db.begin("ssi")
        assert reader.read("t", "a") == 1
        with held_leader(db, writer(db, "leader")):
            queue_behind(db, reader)
        assert reader.is_committed

    def test_non_certifying_empty_write_bypasses_batcher(self):
        """An SI read-only transaction neither certifies nor writes:
        nothing to batch, so it commits without queueing even while a
        leader is busy."""
        db = make_db()
        txn = db.begin("si")
        txn.get("t", "missing")
        with held_leader(db, writer(db, "leader")):
            txn.commit()
            assert txn.is_committed
        assert group_counters(db)["batched_txns"] == 0


def wait_for_suspended(scheduler, count):
    deadline = time.monotonic() + 10
    while scheduler.suspended_sessions != count:
        assert time.monotonic() < deadline, "sessions never suspended"
        time.sleep(0.005)


class TestSessionsRideGroups:
    def test_session_commit_suspends_on_group(self):
        """Session committers ride the leader's group: with the leader's
        thread held in its flush, every other session suspends on its
        ticket — its thread blocks on the ticket, not in a flush — and
        they all ride one group."""
        from repro.session import SessionScheduler
        from repro.sim.ops import Write

        db = make_db()
        scheduler = SessionScheduler(db)
        sessions = 12
        errors = []

        def drive(index):
            session = scheduler.session()

            def program():
                yield Write("t", ("s", index), index)

            try:
                session.call("run_program", program(), "ssi")
            except Exception as error:  # noqa: BLE001 - asserted below
                errors.append(error)
            session.call("close")

        threads = [threading.Thread(target=drive, args=(index,))
                   for index in range(sessions)]
        db.wal.hold()
        threads[0].start()
        assert db.wal.entered.wait(timeout=10)
        for thread in threads[1:]:
            thread.start()
        wait_for_suspended(scheduler, sessions - 1)
        db.wal.release()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "sessions wedged"
        scheduler.shutdown()
        assert not errors, errors
        assert db.stats["commits"] == sessions
        assert group_counters(db) == {
            "batches": 1, "batched_txns": sessions - 1, "batch_aborts": 0,
        }
        assert check_serializable(db.history).serializable
        assert db.locks.table_size() == 0

    def test_interrupted_follower_stays_suspended(self):
        """interrupt() dooms a queued follower but leaves its ticket to
        the leader: the session must not bounce back to its driver
        re-raising the same wait until the leader resolves."""
        from repro.session import SessionScheduler

        db = make_db()
        scheduler = SessionScheduler(db)
        leader_thread = follower_thread = None
        try:
            leader, follower = scheduler.session(), scheduler.session()
            follower.call("begin", "ssi")
            follower.call("write", "t", "f", 1)
            leader.call("begin", "ssi")
            leader.call("write", "t", "l", 1)
            box = {}

            def commit_follower():
                try:
                    follower.call("commit")
                except Exception as error:  # noqa: BLE001 - asserted below
                    box["e"] = error

            db.wal.hold()
            leader_thread = threading.Thread(target=leader.call, args=("commit",))
            leader_thread.start()
            assert db.wal.entered.wait(timeout=10)
            follower_thread = threading.Thread(target=commit_follower)
            follower_thread.start()
            wait_for_suspended(scheduler, 1)
            steps = []
            step = follower._step
            follower._step = lambda: (steps.append(1), step())
            follower.interrupt()
            time.sleep(0.1)  # the leader is still held in its flush
            assert len(steps) <= 2, f"{len(steps)} steps while suspended"
            assert follower_thread.is_alive()
            db.wal.release()
            follower_thread.join(timeout=10)
            assert not follower_thread.is_alive()
            assert isinstance(box["e"], TransactionAbortedError)
            assert group_counters(db)["batch_aborts"] == 1
            assert db.locks.table_size() == 0
        finally:
            db.wal.release()
            for thread in (leader_thread, follower_thread):
                if thread is not None:
                    thread.join(timeout=10)
            scheduler.shutdown()


class TestLatchDebugCompat:
    def test_group_commit_under_checked_latches(self, monkeypatch):
        """REPRO_LATCH_DEBUG=1 swaps in rank-checking latches; the
        batcher's hoisted tracker+commit section must satisfy them."""
        monkeypatch.setenv("REPRO_LATCH_DEBUG", "1")
        db = make_db()
        for r in range(4):
            commit_as_group(
                db,
                writer(db, ("leader", r)),
                [writer(db, ("f", r, k)) for k in range(3)],
            )
        assert db.stats["commits"] == 16
        assert group_counters(db)["batches"] == 4
        assert check_serializable(db.history).serializable
