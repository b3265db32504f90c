"""Engine<->WAL integration details."""

from repro import Database, EngineConfig
from repro.wal.log import WriteAheadLog
from repro.wal.records import CommitRecord, WriteRecord

from tests.conftest import fill


def make_db(**config):
    wal = WriteAheadLog()
    db = Database(EngineConfig(**config), wal=wal)
    fill(db, "t", {1: "a"})
    return db, wal


def test_readonly_commit_logs_nothing():
    db, wal = make_db()
    txn = db.begin("ssi")
    txn.read("t", 1)
    txn.commit()
    assert len(wal) == 0
    assert wal.stats["flushes"] == 0


def test_update_commit_logs_writes_then_commit():
    db, wal = make_db()
    txn = db.begin("ssi")
    txn.write("t", 1, "b")
    txn.insert("t", 2, "c")
    txn.commit()
    records = list(wal.records(durable_only=False))
    kinds = [type(r) for r in records]
    assert kinds == [WriteRecord, WriteRecord, CommitRecord]
    assert {r.kind for r in records[:2]} == {"write", "insert"}
    assert records[-1].commit_ts == txn.commit_ts
    assert wal.flushed_lsn == wal.last_lsn  # flush-on-commit default


def test_aborted_writer_logs_nothing():
    """Write records reach the log only inside their transaction's
    commit, so an aborted writer has nothing there to mark aborted."""
    db, wal = make_db()
    txn = db.begin("ssi")
    txn.write("t", 1, "b")
    txn.abort()
    assert len(wal) == 0
    assert wal.stats["appends"] == 0
    later = db.begin("ssi")
    later.write("t", 1, "c")
    later.commit()
    records = list(wal.records(durable_only=False))
    assert [type(r) for r in records] == [WriteRecord, CommitRecord]


def test_abort_without_writes_logs_nothing():
    db, wal = make_db()
    txn = db.begin("ssi")
    txn.read("t", 1)
    txn.abort()
    assert len(wal) == 0


def test_delete_logged_as_tombstone():
    db, wal = make_db()
    txn = db.begin("ssi")
    txn.delete("t", 1)
    txn.commit()
    write = next(r for r in wal.records(durable_only=False)
                 if isinstance(r, WriteRecord))
    assert write.tombstone and write.kind == "delete"


def test_no_flush_on_commit_config():
    db, wal = make_db(wal_flush_on_commit=False)
    txn = db.begin("ssi")
    txn.write("t", 1, "b")
    txn.commit()
    assert wal.stats["flushes"] == 0
    assert wal.flushed_lsn == 0


def test_unsafe_abort_leaves_no_committed_trace():
    from repro.errors import TransactionAbortedError

    db, wal = make_db()
    fill(db, "acct", {"x": 50, "y": 50})
    t1, t2 = db.begin("ssi"), db.begin("ssi")
    outcomes = []
    # interleaved write skew: reads and writes first, commits last
    for txn, key in ((t1, "x"), (t2, "y")):
        try:
            total = txn.read("acct", "x") + txn.read("acct", "y")
            txn.write("acct", key, total - 150)
        except TransactionAbortedError:
            outcomes.append("abort")
    for txn in (t1, t2):
        if not txn.is_active:
            continue
        try:
            txn.commit()
            outcomes.append("commit")
        except TransactionAbortedError:
            outcomes.append("abort")
    committed = wal.committed_txn_ids()
    assert outcomes.count("commit") <= 1
    # The log records exactly the committed writers; the aborted skew
    # partner and the unlogged bulk loads leave no commit records.
    assert len(committed) == outcomes.count("commit")

