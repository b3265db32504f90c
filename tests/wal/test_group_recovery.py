"""Crash recovery across commits that share a log flush.

Shared flushes change the WAL's durability granularity: one fsync
covers every commit that appended while the previous flush was in
progress.  Groups are staged (one committer held inside its fsync at
the ``GatedWAL`` gate, three more appending and waiting behind it), so
every run alternates a lone commit's flush with a group flush.  The
contract these tests pin down:

* a flushed group is durable as a unit — recovery replays every member;
* a crash before the group flush loses the *whole* group (atomic, not
  torn: no durable CommitRecord may be missing any of its WriteRecords);
* crashes at arbitrary flush boundaries recover a prefix-consistent
  log — exactly the groups whose flush completed.
"""

import pytest

from repro import Database, EngineConfig
from repro.errors import TableError
from repro.wal.records import CommitRecord, WriteRecord
from repro.wal.recovery import recover_database
from tests.conftest import GatedWAL, commit_as_group


def ensure_table(db, name):
    """Replay materialises tables on demand, so the table exists iff any
    of its writes were durable; recreate the schema only when none were."""
    try:
        db.create_table(name)
    except TableError:
        pass


def begin_writers(db, count, keys_per_txn=2):
    """``count`` open transactions, the i-th writing ``(i, k)``."""
    txns = []
    for i in range(count):
        txn = db.begin("ssi")
        for k in range(keys_per_txn):
            txn.write("t", (i, k), i * 100 + k)
        txns.append(txn)
    return txns


def run_batched_commits(db, count, keys_per_txn=2, group=4):
    """Commit ``count`` single-writer transactions as staged groups: of
    every ``group`` consecutive transactions the first is held in its
    fsync and the rest append behind it and share the next flush."""
    txns = begin_writers(db, count, keys_per_txn)
    for start in range(0, count, group):
        first, *others = txns[start:start + group]
        commit_as_group(db, first, others)
    assert all(txn.is_committed for txn in txns)


def assert_no_torn_groups(wal):
    """Every durable CommitRecord must have all of its WriteRecords
    durable too — the group flush is all-or-nothing."""
    durable = list(wal.records(durable_only=True))
    durable_writes = {}
    for record in durable:
        if isinstance(record, WriteRecord):
            durable_writes.setdefault(record.txn_id, set()).add(
                (record.table, record.key)
            )
    all_writes = {}
    for record in wal.records(durable_only=False):
        if isinstance(record, WriteRecord):
            all_writes.setdefault(record.txn_id, set()).add(
                (record.table, record.key)
            )
    for record in durable:
        if isinstance(record, CommitRecord):
            assert durable_writes.get(record.txn_id, set()) == all_writes.get(
                record.txn_id, set()
            ), f"torn group: commit {record.txn_id} durable without its writes"


class DyingWAL(GatedWAL):
    """Power-loss model: after ``survive_flushes`` flushes, flush becomes
    a silent no-op (the machine died before fsync returned), so later
    "durable" groups never reached disk."""

    def __init__(self, survive_flushes):
        super().__init__()
        self.survive_flushes = survive_flushes

    def flush(self, lsn=None):
        if self.stats["flushes"] >= self.survive_flushes:
            self.gate()  # a held committer parks here whether or not it syncs
            return self.flushed_lsn
        return super().flush(lsn)


class TestGroupFlushDurability:
    def test_flushed_group_recovers_every_member(self):
        wal = GatedWAL()
        db = Database(EngineConfig(), wal=wal)
        db.create_table("t")
        run_batched_commits(db, count=24)
        flushes = db.metrics.snapshot()["counters"]["wal"]["flushes"]
        assert flushes == 2 * 24 // 4
        wal.crash()  # everything flushed: nothing to lose
        recovered = recover_database(wal)
        check = recovered.begin("si")
        for i in range(24):
            for k in range(2):
                assert check.read("t", (i, k)) == i * 100 + k
        check.commit()

    def test_group_flush_amortizes_flushes(self):
        wal = GatedWAL()
        db = Database(EngineConfig(), wal=wal)
        db.create_table("t")
        run_batched_commits(db, count=32)
        commits = db.metrics.snapshot()["counters"]["engine"]["commits"]
        assert commits == 32
        # One flush per held commit and one per group behind it, not one
        # per commit.
        assert wal.stats["flushes"] < commits

    def test_unflushed_group_lost_whole(self):
        """A crash between the group's appends and its flush loses every
        member of that group — none of them ack'd durability."""
        wal = GatedWAL()
        db = Database(EngineConfig(wal_flush_on_commit=False), wal=wal)
        db.create_table("t")
        for txn in begin_writers(db, count=8):
            txn.commit()  # appends, never flushes
        wal.crash()
        assert_no_torn_groups(wal)
        recovered = recover_database(wal)
        ensure_table(recovered, "t")
        check = recovered.begin("si")
        for i in range(8):
            assert check.get("t", (i, 0)) is None
        check.commit()


class TestCrashPoints:
    @pytest.mark.parametrize("survive_flushes", [0, 1, 2, 3])
    def test_prefix_consistent_recovery(self, survive_flushes):
        """Power loss after N completed group flushes recovers exactly
        the groups those N flushes covered: prefix-consistent, no torn
        groups, values intact."""
        wal = DyingWAL(survive_flushes)
        db = Database(EngineConfig(), wal=wal)
        db.create_table("t")
        run_batched_commits(db, count=16)
        wal.crash()
        assert wal.stats["flushes"] == min(
            survive_flushes, wal.stats["flushes"]
        )
        assert_no_torn_groups(wal)
        durable_commits = {
            record.txn_id
            for record in wal.records(durable_only=True)
            if isinstance(record, CommitRecord)
        }
        recovered = recover_database(wal)
        ensure_table(recovered, "t")
        check = recovered.begin("si")
        recovered_keys = {key for key, _value in check.scan("t")}
        check.commit()
        # Exactly the durable groups' writes came back.
        expected = set()
        for record in wal.records(durable_only=True):
            if isinstance(record, WriteRecord) and record.txn_id in durable_commits:
                expected.add(record.key)
        assert recovered_keys == expected

    def test_crash_between_enqueue_and_flush_is_atomic(self):
        """The sharpest crash point: the group appended but the flush
        that would cover it died.  No member may be half-durable."""
        wal = DyingWAL(survive_flushes=1)
        db = Database(EngineConfig(), wal=wal)
        db.create_table("t")
        run_batched_commits(db, count=12)
        wal.crash()
        assert_no_torn_groups(wal)
        recovered = recover_database(wal)
        ensure_table(recovered, "t")
        check = recovered.begin("si")
        # Every recovered transaction is complete: both of its keys.
        seen = {}
        for (i, k), value in check.scan("t"):
            seen.setdefault(i, set()).add(k)
            assert value == i * 100 + k
        check.commit()
        for i, ks in seen.items():
            assert ks == {0, 1}, f"txn {i} recovered partially: {ks}"
