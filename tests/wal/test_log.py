"""Write-ahead log unit tests."""

import os
import stat
import threading

import pytest

from repro.wal.log import WriteAheadLog
from repro.wal.records import (
    AbortRecord,
    BeginRecord,
    CheckpointRecord,
    CommitRecord,
    WriteRecord,
)
from tests.conftest import GatedWAL, on_thread


def test_lsns_monotonic():
    log = WriteAheadLog()
    records = [log.log_begin(1), log.log_write(1, "t", "k", 1), log.log_commit(1, 5)]
    assert [r.lsn for r in records] == [1, 2, 3]
    assert log.last_lsn == 3


def test_durable_prefix_only_after_flush():
    log = WriteAheadLog()
    log.log_write(1, "t", "k", 1)
    assert list(log.records()) == []  # nothing durable yet
    log.flush()
    assert len(list(log.records())) == 1
    log.log_write(2, "t", "k", 2)
    assert len(list(log.records())) == 1
    assert len(list(log.records(durable_only=False))) == 2


def test_crash_discards_unflushed_suffix():
    log = WriteAheadLog()
    log.log_write(1, "t", "a", 1)
    log.flush()
    log.log_write(2, "t", "b", 2)
    log.log_commit(2, 9)
    lost = log.crash()
    assert lost == 2
    assert len(log) == 1
    # LSNs continue from the watermark.
    record = log.log_write(3, "t", "c", 3)
    assert record.lsn == 2


def test_group_commit_one_flush_covers_many():
    log = WriteAheadLog()
    for txn_id in range(5):
        log.log_commit(txn_id, txn_id + 1)
    log.flush()
    assert log.stats["flushes"] == 1
    assert log.committed_txn_ids() == list(range(5))


def test_log_commit_appends_its_writes_then_the_commit_record():
    log = WriteAheadLog()
    record = log.log_commit(7, 3, [("t", "a", 1, False, "insert"),
                                   ("t", "b", None, True, "delete")])
    log.flush()
    written = list(log.records())
    assert [r.lsn for r in written] == [1, 2, 3] and record is written[-1]
    assert [type(r) for r in written] == [WriteRecord, WriteRecord, CommitRecord]
    assert written[1].tombstone and written[1].kind == "delete"
    assert log.stats == {"appends": 3, "flushes": 1}


def test_flush_of_a_durable_lsn_returns_at_once():
    log = WriteAheadLog()
    first = log.log_commit(1, 1).lsn
    log.flush(first)
    log.log_commit(2, 2)
    assert log.flush(first) == first  # covered: no flush, no new watermark
    assert log.stats["flushes"] == 1
    assert log.flushed_lsn == first < log.last_lsn


def held(log):
    """Start a flush of ``log`` (a GatedWAL) and return once it is
    parked in its write, with the thread to join."""
    log.hold()
    thread, raised = on_thread(log.flush)
    assert log.entered.wait(timeout=10), "the flush never reached its write"
    return thread, raised


def test_a_flush_waits_out_the_one_in_progress_then_covers_all(tmp_path):
    """Appends go on while a flush is in its write; a flush asked for
    one of them waits for it and then makes every record appended so far
    durable as one frame, so a later flush of any of them returns."""
    path = str(tmp_path / "wal.bin")
    log = GatedWAL(path)
    log.log_commit(1, 1)
    first, first_raised = held(log)
    lsns = [log.log_commit(txn, txn).lsn for txn in (2, 3, 4)]
    second, second_raised = on_thread(log.flush, lsns[0])
    second.join(timeout=0.2)
    assert second.is_alive() and log.flushed_lsn == 0
    log.release()
    for thread in (first, second):
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert not first_raised and not second_raised
    assert log.flushed_lsn == lsns[-1]
    assert log.flush(lsns[-1]) == lsns[-1]
    assert log.stats["flushes"] == 2
    assert WriteAheadLog.load(path).committed_txn_ids() == [1, 2, 3, 4]


@pytest.mark.parametrize("operation", ["crash", "close", "truncate_before"])
def test_crash_close_and_truncate_wait_out_a_flush(operation):
    log = GatedWAL()
    log.log_commit(1, 1)
    flusher, _raised = held(log)
    args = (1,) if operation == "truncate_before" else ()
    waiter, raised = on_thread(getattr(log, operation), *args)
    waiter.join(timeout=0.2)
    assert waiter.is_alive(), f"{operation} ran inside a flush"
    log.release()
    for thread in (flusher, waiter):
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert not raised
    assert log.flushed_lsn == 1


def test_record_types():
    log = WriteAheadLog()
    log.log_begin(1)
    log.log_write(1, "t", "k", "v", tombstone=False, kind="insert")
    log.log_abort(1)
    log.log_checkpoint()
    log.flush()
    kinds = [type(record) for record in log.records()]
    assert kinds == [BeginRecord, WriteRecord, AbortRecord, CheckpointRecord]
    write = list(log.records())[1]
    assert write.kind == "insert" and not write.tombstone


def test_file_persistence_roundtrip(tmp_path):
    path = str(tmp_path / "wal.bin")
    log = WriteAheadLog(path=path)
    log.log_write(1, "t", ("composite", 3), {"balance": 10.5})
    log.log_commit(1, 7)
    log.flush()
    log.log_write(2, "t", "lost", 0)  # never flushed

    reloaded = WriteAheadLog.load(path)
    records = list(reloaded.records())
    assert len(records) == 2
    assert records[0].key == ("composite", 3)
    assert reloaded.committed_txn_ids() == [1]


def test_load_missing_file_gives_empty_log(tmp_path):
    log = WriteAheadLog.load(str(tmp_path / "absent.bin"))
    assert len(log) == 0
    assert log.last_lsn == 0


def test_truncate_before():
    log = WriteAheadLog()
    for i in range(5):
        log.log_write(1, "t", i, i)
    log.flush()
    removed = log.truncate_before(lsn=3)
    assert removed == 2
    assert [r.lsn for r in log.records()] == [3, 4, 5]


# ------------------------------------------------------------ file format


def commit_pairs(log, txn_ids):
    """One write and one commit per id, each flushed on its own."""
    for txn_id in txn_ids:
        log.log_write(txn_id, "t", txn_id, "v")
        log.log_commit(txn_id, txn_id)
        log.flush()


def test_torn_last_frame_is_dropped_and_truncated(tmp_path):
    path = str(tmp_path / "wal.bin")
    log = WriteAheadLog(path=path)
    commit_pairs(log, [1, 2])
    good = os.path.getsize(path)
    commit_pairs(log, [3])
    log.close()
    with open(path, "r+b") as handle:  # the last flush was cut short
        handle.truncate(os.path.getsize(path) - 5)

    reloaded = WriteAheadLog.load(path)
    assert reloaded.committed_txn_ids() == [1, 2]
    assert os.path.getsize(path) == good
    commit_pairs(reloaded, [4])
    reloaded.close()
    assert WriteAheadLog.load(path).committed_txn_ids() == [1, 2, 4]


def test_header_cut_short_is_a_torn_tail(tmp_path):
    path = str(tmp_path / "wal.bin")
    log = WriteAheadLog(path=path)
    commit_pairs(log, [1])
    log.close()
    good = os.path.getsize(path)
    with open(path, "ab") as handle:
        handle.write(b"\x07\x00\x00")
    assert WriteAheadLog.load(path).committed_txn_ids() == [1]
    assert os.path.getsize(path) == good


def test_corrupt_crc_drops_only_the_last_frame(tmp_path):
    path = str(tmp_path / "wal.bin")
    log = WriteAheadLog(path=path)
    commit_pairs(log, [1, 2])
    last = os.path.getsize(path)
    commit_pairs(log, [3])
    log.close()
    with open(path, "r+b") as handle:
        handle.seek(last + 4)  # the last frame's CRC field
        byte = handle.read(1)
        handle.seek(last + 4)
        handle.write(bytes([byte[0] ^ 0xFF]))

    reloaded = WriteAheadLog.load(path)
    assert reloaded.committed_txn_ids() == [1, 2]
    assert reloaded.last_lsn == 4
    assert os.path.getsize(path) == last


def test_corrupt_middle_frame_is_refused_not_truncated(tmp_path):
    """Append-then-fsync tears only the last frame: a bad frame with an
    intact one after it is corruption, and the file is left as it is."""
    path = str(tmp_path / "wal.bin")
    log = WriteAheadLog(path=path)
    commit_pairs(log, [1])
    second = os.path.getsize(path)
    commit_pairs(log, [2, 3])
    log.close()
    for offset in (second + 20, second):  # frame 2's payload, its length
        with open(path, "r+b") as handle:
            original = handle.read()
            handle.seek(offset)
            handle.write(bytes([original[offset] ^ 0x01]))
        with pytest.raises(ValueError, match=f"offset {second} "):
            WriteAheadLog.load(path)
        with open(path, "rb") as handle:
            corrupted = handle.read()
        assert len(corrupted) == len(original)
        assert corrupted[:offset] == original[:offset]
        with open(path, "wb") as handle:
            handle.write(original)
    assert WriteAheadLog.load(path).committed_txn_ids() == [1, 2, 3]


def count_syncs(monkeypatch):
    """Route ``os.fsync`` through recorders of the file and directory
    descriptors it syncs."""
    files, directories = [], []
    real_fsync = os.fsync

    def fsync(fd):
        is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
        (directories if is_dir else files).append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return files, directories


def test_new_log_file_syncs_its_directory_once(tmp_path, monkeypatch):
    files, directories = count_syncs(monkeypatch)
    path = str(tmp_path / "wal.bin")
    log = WriteAheadLog(path=path)
    commit_pairs(log, [1])
    assert (len(directories), len(files)) == (1, 1)
    commit_pairs(log, [2, 3])
    log.close()
    commit_pairs(log, [4])  # reopens the file to append
    assert (len(directories), len(files)) == (1, 4)

    continued = WriteAheadLog.load(path)
    commit_pairs(continued, [5])
    assert (len(directories), len(files)) == (1, 5)
    fresh = WriteAheadLog.load(str(tmp_path / "absent.bin"))
    commit_pairs(fresh, [6])
    assert (len(directories), len(files)) == (2, 6)


def test_fsync_once_per_flush_with_new_records(tmp_path, monkeypatch):
    synced, _directories = count_syncs(monkeypatch)

    memory = WriteAheadLog()
    commit_pairs(memory, [1, 2])
    memory.flush()
    assert synced == []

    log = WriteAheadLog(path=str(tmp_path / "wal.bin"))
    log.flush()  # nothing new
    assert synced == []
    commit_pairs(log, [1, 2, 3])
    assert len(synced) == 3
    log.flush()
    log.flush()
    assert len(synced) == 3
    assert log.stats["flushes"] == 6


def test_flush_writes_only_its_own_records(tmp_path):
    path = str(tmp_path / "wal.bin")
    log = WriteAheadLog(path=path)
    growth = []
    for txn_id in range(10, 60):
        before = os.path.getsize(path) if os.path.exists(path) else 0
        commit_pairs(log, [txn_id])
        growth.append(os.path.getsize(path) - before)
    assert len(set(growth)) == 1, growth
    assert os.path.getsize(path) == 50 * growth[0]


def test_fresh_log_replaces_the_file_and_load_continues_it(tmp_path):
    path = str(tmp_path / "wal.bin")
    old = WriteAheadLog(path=path)
    commit_pairs(old, [1, 2])
    old.close()

    continued = WriteAheadLog.load(path)
    commit_pairs(continued, [3])
    continued.close()
    assert WriteAheadLog.load(path).committed_txn_ids() == [1, 2, 3]

    fresh = WriteAheadLog(path=path)
    assert WriteAheadLog.load(path).committed_txn_ids() == [1, 2, 3]
    commit_pairs(fresh, [7])
    fresh.close()
    assert WriteAheadLog.load(path).committed_txn_ids() == [7]


def test_truncate_before_rewrites_the_file(tmp_path):
    path = str(tmp_path / "wal.bin")
    log = WriteAheadLog(path=path)
    for i in range(5):
        log.log_write(1, "t", i, i)
    log.flush()
    assert log.truncate_before(lsn=3) == 2
    assert [r.lsn for r in WriteAheadLog.load(path).records()] == [3, 4, 5]
    assert not os.path.exists(path + ".tmp")

    log.log_write(2, "t", "k", "v")
    log.log_commit(2, 9)
    log.flush()  # appends to the rewritten file
    reloaded = WriteAheadLog.load(path)
    assert [r.lsn for r in reloaded.records()] == [3, 4, 5, 6, 7]
    assert reloaded.committed_txn_ids() == [2]


def test_failed_sync_cuts_the_frame_back(tmp_path, monkeypatch):
    path = str(tmp_path / "wal.bin")
    log = WriteAheadLog(path=path)
    commit_pairs(log, [1])
    good = os.path.getsize(path)

    def failing_fsync(fd):
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(os, "fsync", failing_fsync)
        log.log_write(2, "t", 2, "v")
        log.log_commit(2, 2)
        with pytest.raises(OSError):
            log.flush()
    assert os.path.getsize(path) == good
    assert log.flushed_lsn == 2
    log.flush()  # the retry writes the whole group as one frame
    log.close()
    assert WriteAheadLog.load(path).committed_txn_ids() == [1, 2]
