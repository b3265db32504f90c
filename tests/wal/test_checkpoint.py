"""Checkpoint/restore tests."""

import pytest

from repro import Database, EngineConfig
from repro.mvcc.timestamps import LogicalClock
from repro.wal import (
    WriteAheadLog,
    recover_from_checkpoint,
    restore_checkpoint,
    take_checkpoint,
)


def traffic(db, keys, offset=0):
    for index, key in enumerate(keys):
        txn = db.begin("ssi")
        txn.write("t", key, offset + index)
        txn.commit()


@pytest.fixture
def db():
    wal = WriteAheadLog()
    database = Database(EngineConfig(), wal=wal)
    database.create_table("t")
    traffic(database, ["a", "b", "c"])
    return database


def test_checkpoint_restore_roundtrip(db):
    image = take_checkpoint(db)
    restored = restore_checkpoint(image)
    check = restored.begin("si")
    assert dict(check.scan("t")) == {"a": 0, "b": 1, "c": 2}
    check.commit()


def test_checkpoint_preserves_commit_timestamps(db):
    image = take_checkpoint(db)
    restored = restore_checkpoint(image)
    for key in ("a", "b", "c"):
        assert (
            restored.table("t").chain(key).latest().commit_ts
            == db.table("t").chain(key).latest().commit_ts
        )


def test_restore_advances_the_clock_in_one_step(db, monkeypatch):
    """A restored clock jumps to the image's high-water mark: it does not
    issue every timestamp below it one by one."""
    image = {**take_checkpoint(db), "clock": 10_000}
    calls = []
    issue = LogicalClock.next

    def counted(clock):
        calls.append(clock)
        return issue(clock)

    monkeypatch.setattr(LogicalClock, "next", counted)
    restored = restore_checkpoint(image)
    assert len(calls) < 10
    txn = restored.begin("ssi")
    assert txn.begin_seq > 10_000
    txn.write("t", "a", "after")
    txn.commit()
    assert txn.commit_ts > txn.begin_seq


def test_recovery_replays_suffix_only(db):
    image = take_checkpoint(db)
    traffic(db, ["d", "a"], offset=10)  # post-checkpoint: d=10, a=11
    db.wal.flush()
    recovered = recover_from_checkpoint(image, db.wal)
    check = recovered.begin("si")
    assert dict(check.scan("t")) == {"a": 11, "b": 1, "c": 2, "d": 10}
    check.commit()


def test_log_truncation_after_checkpoint(db):
    image = take_checkpoint(db)
    db.wal.truncate_before(image["checkpoint_lsn"])
    traffic(db, ["z"], offset=99)
    db.wal.flush()
    recovered = recover_from_checkpoint(image, db.wal)
    check = recovered.begin("si")
    assert check.read("t", "z") == 99
    assert check.read("t", "a") == 0  # from the checkpoint image
    check.commit()


def test_checkpoint_to_file(tmp_path, db):
    path = str(tmp_path / "ckpt.bin")
    take_checkpoint(db, path=path)
    traffic(db, ["post"], offset=7)
    db.wal.flush()
    recovered = recover_from_checkpoint(path, db.wal)
    check = recovered.begin("si")
    assert check.read("t", "post") == 7
    assert check.read("t", "b") == 1
    check.commit()


def test_new_transactions_order_after_restore(db):
    image = take_checkpoint(db)
    restored = restore_checkpoint(image)
    txn = restored.begin("ssi")
    txn.write("t", "a", "new")
    txn.commit()
    chain = restored.table("t").chain("a")
    assert chain.latest().value == "new"
    assert len(chain) == 2  # new version strictly after the restored one
