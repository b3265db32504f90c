"""Redo recovery.

Rebuilds database state from the durable prefix of a write-ahead log.
Because the engine is no-steal, recovery is a single redo pass:

1. collect the commit record of every committed transaction;
2. replay the write records of committed transactions, in commit-
   timestamp order, installing versions with their original commit
   timestamps (so post-recovery snapshots see exactly the pre-crash
   version history);
3. everything else — uncommitted, aborted, or committed-but-unflushed —
   contributes nothing.

A checkpoint record allows the scan to skip the truncated prefix; the
checkpointed state is supplied as a base database.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Hashable

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.errors import TableError
from repro.mvcc.version import TOMBSTONE, Version
from repro.wal.log import WriteAheadLog
from repro.wal.records import CheckpointRecord, CommitRecord, WriteRecord


def replay(log: WriteAheadLog, base: Database | None = None,
           config: EngineConfig | None = None,
           start_lsn: int | None = None) -> Database:
    """Redo the durable prefix of ``log`` into a database.

    ``base`` supplies checkpointed state (tables already loaded); when
    None a fresh database is created and tables materialise on demand.
    ``start_lsn`` pins the replay start (records at or below it are
    assumed captured by the base); by default the newest checkpoint
    record in the log is used.
    """
    db = base if base is not None else Database(config or EngineConfig())

    commit_ts_of: dict[int, int] = {}
    writes: dict[int, list[WriteRecord]] = defaultdict(list)
    if start_lsn is None:
        start_lsn = 0
        for record in log.records(durable_only=True):
            if isinstance(record, CheckpointRecord):
                start_lsn = record.lsn

    for record in log.records(durable_only=True):
        if record.lsn <= start_lsn:
            continue
        if isinstance(record, CommitRecord):
            commit_ts_of[record.txn_id] = record.commit_ts
        elif isinstance(record, WriteRecord):
            writes[record.txn_id].append(record)

    max_ts = 0
    for txn_id, commit_ts in sorted(commit_ts_of.items(), key=lambda kv: kv[1]):
        for write in writes.get(txn_id, ()):
            table = _ensure_table(db, write.table)
            chain, _pages = table.ensure_chain(write.key)
            value = TOMBSTONE if write.tombstone else write.value
            chain.install(
                Version(value=value, commit_ts=commit_ts, creator_id=txn_id)
            )
        max_ts = max(max_ts, commit_ts)

    # Advance the clock past everything recovered so new transactions
    # order after pre-crash history.
    db.clock.advance_to(max_ts)
    return db


def recover_database(log: WriteAheadLog, config: EngineConfig | None = None) -> Database:
    """Fresh-start recovery: an empty database plus the log's redo state."""
    return replay(log, base=None, config=config)


def _ensure_table(db: Database, name: str):
    try:
        return db.table(name)
    except TableError:
        return db.create_table(name)
