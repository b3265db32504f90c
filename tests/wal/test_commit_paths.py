"""Every way to commit publishes the same thing.

The serial halves ``prepare_commit`` -> ``finalize_commit`` (the
reference), ``Database.commit``, and the two-phase
``prepare_for_commit`` -> ``commit_prepared`` -> ``finalize_commit``
sequence all end in the one certify -> install and log -> flush
pipeline.  This pins the contract new WAL
record types will be written against: the same transactions leave the
same redo records, the same recovered state, the same counters, history
and trace — whichever entry point committed them.
"""

import pytest

from repro import Database, EngineConfig
from repro.obs.trace import EventType
from repro.wal.log import WriteAheadLog
from repro.wal.records import CommitRecord, WriteRecord
from repro.wal.recovery import recover_database

PATHS = ("serial", "commit", "two_phase")


def do_insert(txn):
    txn.insert("t", 3, "c")


def do_update(txn):
    txn.write("t", 1, "a2")


def do_delete_then_reinsert(txn):
    txn.delete("t", 2)
    txn.insert("t", 2, "b2")


def do_read_only(txn):
    assert txn.read("t", 1) == "a2"


WRITERS = (do_insert, do_update, do_delete_then_reinsert)


def commit_via(db, path, txn):
    if path == "serial":
        db.prepare_commit(txn)
        db.finalize_commit(txn)
    elif path == "two_phase":
        db.prepare_for_commit(txn)
        db.commit_prepared(txn)
        db.finalize_commit(txn)
    else:
        db.commit(txn)


def run_path(path, level, wal_path):
    """Commit the three writers and the reader through ``path`` on a
    fresh database; returns everything the paths must agree on."""
    wal = WriteAheadLog(str(wal_path))
    db = Database(EngineConfig(record_history=True), wal=wal)
    db.create_table("t")
    db.load("t", [(1, "a"), (2, "b")])
    db.enable_tracing()
    history_commits = []
    real_on_commit = db.history.on_commit

    def counting_on_commit(txn_id, commit_ts):
        history_commits.append(txn_id)
        real_on_commit(txn_id, commit_ts)

    db.history.on_commit = counting_on_commit

    txn_ids = []
    for body in WRITERS:
        txn = db.begin(level)
        body(txn)
        commit_via(db, path, txn)
        txn_ids.append(txn.id)
    wal_counters_before_reader = db.metrics.snapshot()["counters"]["wal"]
    reader = db.begin(level)
    do_read_only(reader)
    commit_via(db, path, reader)
    txn_ids.append(reader.id)
    wal_counters = db.metrics.snapshot()["counters"]["wal"]
    assert wal_counters == wal_counters_before_reader, (
        "a read-only commit appended to or flushed the WAL"
    )
    assert wal.flushed_lsn == wal.last_lsn, "a commit returned unflushed"

    ordinal = {txn_id: index for index, txn_id in enumerate(txn_ids)}
    durable = WriteAheadLog.load(str(wal_path))
    records = []
    for record in durable.records():
        if isinstance(record, WriteRecord):
            records.append((
                "write", ordinal[record.txn_id], record.table, record.key,
                record.value, record.tombstone, record.kind,
            ))
        else:
            assert isinstance(record, CommitRecord), record
            records.append(("commit", ordinal[record.txn_id]))
    recovered = recover_database(durable)
    with recovered.begin("si") as txn:
        recovered_rows = txn.scan("t")
    trace_commits = [
        event.txn_id for event in db.trace.events(etype=EventType.COMMIT)
    ]
    return {
        "records": records,
        "recovered_rows": recovered_rows,
        "commits": db.stats["commits"],
        "appends": wal_counters["appends"],
        "flushes": wal_counters["flushes"],
        "history_commits": [ordinal[i] for i in history_commits],
        "trace_commits": [ordinal[i] for i in trace_commits],
        "lock_table_size": db.locks.table_size(),
    }


@pytest.mark.parametrize("level", ["ssi", "si", "s2pl"])
def test_every_commit_path_publishes_the_same(level, tmp_path):
    outcomes = {
        path: run_path(path, level, tmp_path / f"{path}.wal") for path in PATHS
    }
    reference = outcomes["serial"]
    assert reference["records"] == [
        ("write", 0, "t", 3, "c", False, "insert"),
        ("commit", 0),
        ("write", 1, "t", 1, "a2", False, "write"),
        ("commit", 1),
        ("write", 2, "t", 2, "b2", False, "insert"),
        ("commit", 2),
    ]
    # Bulk-loaded rows are not logged; recovery sees the redo state only.
    assert reference["recovered_rows"] == [(1, "a2"), (2, "b2"), (3, "c")]
    assert reference["commits"] == 4
    assert reference["appends"] == 6
    assert reference["flushes"] == 3
    assert reference["history_commits"] == [0, 1, 2, 3]
    assert reference["trace_commits"] == [0, 1, 2, 3]
    assert reference["lock_table_size"] == 0
    for path in PATHS[1:]:
        assert outcomes[path] == reference, f"{path} diverged from serial"
