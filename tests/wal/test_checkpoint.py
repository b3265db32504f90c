"""Checkpoint/restore tests."""

import os
import threading

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


def test_restore_never_reuses_a_creator_id(db):
    restored = restore_checkpoint(take_checkpoint(db))
    creators = {restored.table("t").chain(k).latest().creator_id
                for k in ("a", "b", "c")}
    assert restored.begin("ssi").id > max(creators)


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, db,
                                                         monkeypatch):
    """The image is synced to a temporary file and renamed over the old
    one, so a write that fails before the rename leaves the old image."""
    path = str(tmp_path / "db.ckpt")
    take_checkpoint(db, path=path)
    traffic(db, ["d"], offset=9)

    def failing_fsync(fd):
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            take_checkpoint(db, path=path)
    check = restore_checkpoint(path).begin("si")
    assert dict(check.scan("t")) == {"a": 0, "b": 1, "c": 2}
    check.commit()

    take_checkpoint(db, path=path)
    check = restore_checkpoint(path).begin("si")
    assert dict(check.scan("t")) == {"a": 0, "b": 1, "c": 2, "d": 9}
    check.commit()


class ParkedCommitWAL(WriteAheadLog):
    """A log whose ``log_commit`` can be parked: a committer stops there
    with its commit timestamp drawn, its versions installed and the
    commit latch held, before its records reach the log."""

    def __init__(self):
        super().__init__()
        self.parked = threading.Event()
        self._open = threading.Event()
        self._open.set()

    def park(self) -> None:
        self._open.clear()

    def unpark(self) -> None:
        self._open.set()

    def log_commit(self, *args, **kwargs):
        if not self._open.is_set():
            self.parked.set()
            assert self._open.wait(timeout=30), "ParkedCommitWAL never unparked"
        return super().log_commit(*args, **kwargs)


def test_checkpoint_taken_mid_commit_waits_for_its_records():
    """A checkpoint started while a commit appends its records waits
    for them (the commit latch): the image holds the commit, its records
    precede the checkpoint record, and truncating the log before that
    record still recovers it exactly once."""
    wal = ParkedCommitWAL()
    db = Database(EngineConfig(), wal=wal)
    db.create_table("t")
    traffic(db, ["a", "b", "c"])
    txn = db.begin("ssi")
    txn.write("t", "a", "mid")
    wal.park()
    committer = threading.Thread(target=db.commit, args=(txn,))
    committer.start()
    images = []
    checkpointer = threading.Thread(
        target=lambda: images.append(take_checkpoint(db)))
    try:
        assert wal.parked.wait(timeout=30)
        checkpointer.start()
        checkpointer.join(timeout=0.2)
        assert checkpointer.is_alive(), "the checkpoint overtook the commit"
    finally:
        wal.unpark()
        committer.join(timeout=30)
        checkpointer.join(timeout=30)
    assert not committer.is_alive() and not checkpointer.is_alive()
    (image,) = images
    assert txn.commit_ts <= image["clock"]
    assert txn.commit_lsn < image["checkpoint_lsn"]
    traffic(db, ["d"], offset=10)
    wal.truncate_before(image["checkpoint_lsn"])
    recovered = recover_from_checkpoint(image, wal)
    check = recovered.begin("si")
    assert dict(check.scan("t")) == {"a": "mid", "b": 1, "c": 2, "d": 10}
    check.commit()
