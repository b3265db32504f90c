"""The write-ahead log.

An append-only sequence of records with an explicit *flushed* watermark:
everything at or below ``flushed_lsn`` survives a crash, everything above
is lost.  ``flush()`` advances the watermark (the 10 ms the benchmarks
charge); :meth:`crash` simulates power loss by discarding the unflushed
suffix.

A committing writer appends its write records and its commit record in
one call (:meth:`WriteAheadLog.log_commit`), made under the engine's
commit latch, so LSN order is commit order; it then calls
``flush(lsn)`` with no engine latch held.  Concurrent commits share
fsyncs by LSN, as PostgreSQL's ``XLogFlush`` does: a flush returns at
once when its LSN is already durable, and otherwise waits out the flush
in progress and then makes everything appended so far durable — its own
records and those of every commit that appended while it waited.  The
append latch is not held across the write and fsync, so committers keep
appending behind a flush; :meth:`crash`, :meth:`close` and
:meth:`truncate_before` wait out a flush in progress.

With a ``path``, the log is an append-only file of *frames*, one per
flush that had new records: a 4-byte length, a 4-byte CRC32 of the
payload, and the payload — the pickle of the list of records that flush
made durable (values are arbitrary Python objects).  The flush writes its
frame and calls ``os.fsync`` before it advances ``flushed_lsn``, so the
file holds exactly the durable prefix, and a commit's records, appended
together, are in one frame: recovery sees all of them or none.
:meth:`WriteAheadLog.load` reads
frames up to the first one that runs past the end of the file or fails
its CRC — the torn tail of a flush cut short — and truncates the file
there, so later flushes append after valid data.  Append-then-fsync can
tear only the last frame, so a bad frame with an intact one after it is
corruption: ``load`` raises ``ValueError`` naming its offset and leaves
the file as it is.  Creating the file syncs its directory once.  The in-memory
log (``path=None``) never touches a file.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import weakref
import zlib
from bisect import bisect_left
from operator import attrgetter
from typing import Any, Hashable, Iterable, Iterator

from repro.engine.latches import make_latch
from repro.obs.registry import CounterGroup
from repro.wal.records import (
    AbortRecord,
    BeginRecord,
    CheckpointRecord,
    CommitRecord,
    LogRecord,
    WriteRecord,
)

#: frame header: payload length, CRC32 of the payload (little-endian)
_HEADER = struct.Struct("<II")


def _frame(records: list[LogRecord]) -> bytes:
    payload = pickle.dumps(records, pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _frame_end(data: memoryview, offset: int) -> int | None:
    """Where the intact frame at ``offset`` ends, or None when the frame
    there runs past the end of ``data`` or fails its CRC."""
    start = offset + _HEADER.size
    if start > len(data):
        return None
    length, crc = _HEADER.unpack_from(data, offset)
    end = start + length
    intact = 0 < length and end <= len(data) and zlib.crc32(data[start:end]) == crc
    return end if intact else None


def _sync_directory(path: str) -> None:
    """Make the directory entry of ``path`` durable."""
    directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def replace_file(path: str, data: bytes) -> None:
    """Atomically make ``data`` the contents of ``path``: write a
    temporary file beside it, fsync it, rename it over ``path`` and fsync
    the directory.  A crash leaves either the old file or the new one."""
    temp = f"{path}.tmp"
    with open(temp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    _sync_directory(path)


class WriteAheadLog:
    """An append-only redo log with a flush watermark.

    Args:
        path: optional file path; when set, :meth:`flush` appends the
            newly durable records to it as one fsync'd frame, and
            :meth:`load` rebuilds the log from disk.  A new log replaces
            any file at ``path`` on its first flush; a loaded one
            continues the file it read.
    """

    def __init__(self, path: str | None = None):
        self._records: list[LogRecord] = []
        #: how many of ``_records`` (a prefix) are durable
        self._durable = 0
        self._flushed_lsn = 0
        self._next_lsn = 1
        self.path = path
        #: the open log file, from the first flush on, and its finalizer
        self._file = None
        self._closer = None
        self._file_mode = "wb"
        #: records appended and flushes run; the engine adopts the group
        #: into its metrics as ``wal``
        self.stats = CounterGroup(appends=0, flushes=0)
        # Leaf latch (rank "wal", the bottom of the hierarchy): serialises
        # LSN allocation, appends and the flush watermark.  A committer
        # appends under the engine's commit latch, which ranks above it;
        # nothing else is ever done under an engine latch.
        self._latch = make_latch("wal")
        # Not a latch: held across a flush's write and fsync, so one
        # flush runs at a time, and by crash/close/truncate_before to wait
        # one out.  Always taken before the wal latch and never under an
        # engine latch.
        self._flushing = threading.Lock()

    # ------------------------------------------------------------- append

    def _append(self, factory, txn_id: int, **fields) -> LogRecord:
        with self._latch:
            record = factory(lsn=self._next_lsn, txn_id=txn_id, **fields)
            self._next_lsn += 1
            self._records.append(record)
            self.stats["appends"] += 1
            return record

    def log_begin(self, txn_id: int) -> LogRecord:
        return self._append(BeginRecord, txn_id)

    def log_write(
        self,
        txn_id: int,
        table: str,
        key: Hashable,
        value: Any,
        tombstone: bool = False,
        kind: str = "write",
    ) -> LogRecord:
        return self._append(
            WriteRecord, txn_id, table=table, key=key, value=value,
            tombstone=tombstone, kind=kind,
        )

    def log_commit(
        self, txn_id: int, commit_ts: int,
        writes: Iterable[tuple[str, Hashable, Any, bool, str]] = (),
    ) -> LogRecord:
        """Append a write record for each ``(table, key, value,
        tombstone, kind)`` of ``writes``, then the commit record, in one
        hold of the latch: the transaction's records are contiguous and
        no flush can take some of them without the rest.  Returns the
        commit record."""
        with self._latch:
            lsn = self._next_lsn
            records = self._records
            for table, key, value, tombstone, kind in writes:
                records.append(WriteRecord(
                    lsn=lsn, txn_id=txn_id, table=table, key=key,
                    value=value, tombstone=tombstone, kind=kind,
                ))
                lsn += 1
            record = CommitRecord(lsn=lsn, txn_id=txn_id, commit_ts=commit_ts)
            records.append(record)
            self.stats["appends"] += lsn + 1 - self._next_lsn
            self._next_lsn = lsn + 1
            return record

    def log_abort(self, txn_id: int) -> LogRecord:
        """Append an abort marker.  The engine never does: a transaction's
        writes reach the log only inside its :meth:`log_commit`, so an
        aborted one has nothing here to mark."""
        return self._append(AbortRecord, txn_id)

    def log_checkpoint(self) -> LogRecord:
        return self._append(CheckpointRecord, 0)

    # -------------------------------------------------------- durability

    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    @property
    def flushed_lsn(self) -> int:
        return self._flushed_lsn

    def flush(self, lsn: int | None = None) -> int:
        """Make the log durable through ``lsn`` — everything appended so
        far when None — and return the watermark.

        Returns at once when ``lsn`` is already durable.  Otherwise it
        waits out the flush in progress, which may have covered ``lsn``,
        and then writes everything appended so far as one frame and
        fsyncs it, with the append latch free: the records of every
        commit that appended meanwhile share this fsync."""
        if lsn is not None and lsn <= self._flushed_lsn:
            return self._flushed_lsn
        with self._flushing:
            if lsn is not None and lsn <= self._flushed_lsn:
                return self._flushed_lsn
            with self._latch:
                self.stats["flushes"] += 1
                end = len(self._records)
                last = self._next_lsn - 1
                batch = self._records[self._durable:end]
            # Appends only extend the list, and everything that shrinks it
            # waits for ``_flushing``: ``end`` still marks this batch.
            self._sync(batch)
            with self._latch:
                self._durable = end
                self._flushed_lsn = last
            return last

    def _sync(self, records: list[LogRecord]) -> None:
        """Write ``records`` as one frame and fsync it (a file log only;
        caller holds ``_flushing``).  A write or sync that fails cuts the
        file back to where the frame began, so a later flush never
        appends behind a partial frame."""
        if self.path is None:
            return
        if self._file is None:
            self._file = open(self.path, self._file_mode, buffering=0)
            # Closes the file when the log is collected unclosed.
            self._closer = weakref.finalize(self, self._file.close)
            if self._file_mode == "wb":  # a new file
                _sync_directory(self.path)
        if not records:
            return
        frame = _frame(records)
        start = self._file.tell()
        try:
            if self._file.write(frame) != len(frame):
                raise OSError(f"short write to {self.path}")
            os.fsync(self._file.fileno())
        except BaseException:
            self._file.truncate(start)
            self._file.seek(start)
            raise

    def crash(self) -> int:
        """Simulate power loss: the unflushed suffix disappears.
        Returns the number of records lost."""
        with self._flushing, self._latch:
            lost = len(self._records) - self._durable
            del self._records[self._durable:]
            self._next_lsn = self._flushed_lsn + 1
            return lost

    def close(self) -> None:
        """Close the log file (a later flush reopens it to append)."""
        with self._flushing, self._latch:
            self._close_file()

    def _close_file(self) -> None:
        if self._file is not None:
            self._closer()
            self._file = None
            self._file_mode = "ab"

    @classmethod
    def load(cls, path: str) -> "WriteAheadLog":
        """Rebuild a log from the frames in its file, dropping a torn
        tail — a frame cut short or failing its CRC — and truncating the
        file after the last good frame.  The log continues that file.
        Raises ``ValueError``, changing nothing, when an intact frame
        follows the bad one."""
        log = cls(path=path)
        if not os.path.exists(path):
            return log
        log._file_mode = "ab"
        with open(path, "rb") as handle:
            data = memoryview(handle.read())
        offset = 0
        while (end := _frame_end(data, offset)) is not None:
            log._records.extend(pickle.loads(data[offset + _HEADER.size:end]))
            offset = end
        if offset < len(data):
            if any(_frame_end(data, later) is not None
                   for later in range(offset + 1, len(data))):
                raise ValueError(
                    f"{path}: bad frame at offset {offset} is followed by "
                    "intact frames"
                )
            with open(path, "r+b") as handle:
                handle.truncate(offset)
                os.fsync(handle.fileno())
        log._durable = len(log._records)
        log._flushed_lsn = log._records[-1].lsn if log._records else 0
        log._next_lsn = log._flushed_lsn + 1
        return log

    # ----------------------------------------------------------- reading

    def records(self, durable_only: bool = True) -> Iterator[LogRecord]:
        """Iterate records; by default only the flushed (durable) prefix —
        what recovery is allowed to see."""
        with self._latch:
            if durable_only:
                return iter(self._records[:self._durable])
            return iter(list(self._records))

    def committed_txn_ids(self) -> list[int]:
        return [
            record.txn_id
            for record in self.records()
            if isinstance(record, CommitRecord)
        ]

    def truncate_before(self, lsn: int) -> int:
        """Drop records below ``lsn`` (after a checkpoint made them
        redundant).  Returns the number removed.  LSNs are preserved —
        the log keeps a base offset.  A file log is rewritten atomically
        to one frame of the durable records kept."""
        with self._flushing, self._latch:
            removed = bisect_left(self._records, lsn, key=attrgetter("lsn"))
            del self._records[:removed]
            self._durable = max(0, self._durable - removed)
            if removed and self.path is not None:
                self._close_file()
                kept = self._records[:self._durable]
                replace_file(self.path, _frame(kept) if kept else b"")
                self._file_mode = "ab"
            return removed

    def __len__(self) -> int:
        return len(self._records)
