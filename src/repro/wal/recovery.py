"""Redo recovery.

Rebuilds database state from the durable prefix of a write-ahead log.
Because the engine is no-steal, recovery is a single redo pass:

1. collect the commit record of every durable commit the base does not
   already hold — those with a commit timestamp above the base's clock;
2. replay their write records in commit-timestamp order, installing
   versions with their original commit timestamps (so post-recovery
   snapshots see exactly the pre-crash version history);
3. everything else — uncommitted, aborted, committed-but-unflushed, or
   already in the base — contributes nothing.

The base is a restored checkpoint (its clock is the image's) or an empty
database (clock 0: every durable commit is replayed).  The timestamp
rule is exact because a writer draws its commit timestamp, installs its
versions and appends its records in one commit-latched section, and a
checkpoint images the tables, reads the clock and appends its record
under that same latch: a commit is in the image if and only if its
timestamp is at most the image's clock, which is also exactly when its
records precede the checkpoint record.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Hashable

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.errors import TableError
from repro.mvcc.version import TOMBSTONE, Version
from repro.wal.log import WriteAheadLog
from repro.wal.records import CommitRecord, WriteRecord


def replay(log: WriteAheadLog, base: Database | None = None,
           config: EngineConfig | None = None) -> Database:
    """Redo into a database the durable commits of ``log`` that it does
    not hold yet: those whose commit timestamp is above its clock.

    ``base`` supplies checkpointed state (tables already loaded); when
    None a fresh database is created and tables materialise on demand.
    """
    db = base if base is not None else Database(config or EngineConfig())
    held_ts = db.clock.now()

    commit_ts_of: dict[int, int] = {}
    writes: dict[int, list[WriteRecord]] = defaultdict(list)
    max_txn_id = 0
    for record in log.records(durable_only=True):
        max_txn_id = max(max_txn_id, record.txn_id)
        if isinstance(record, CommitRecord):
            if record.commit_ts > held_ts:
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
    # order after pre-crash history, and the id counter past every id in
    # the log so a database that keeps logging to it never reuses one.
    db.clock.advance_to(max_ts)
    db._next_txn_id = max(db._next_txn_id, max_txn_id + 1)
    return db


def recover_database(log: WriteAheadLog, config: EngineConfig | None = None) -> Database:
    """Fresh-start recovery: an empty database plus the log's redo state."""
    return replay(log, base=None, config=config)


def _ensure_table(db: Database, name: str):
    try:
        return db.table(name)
    except TableError:
        return db.create_table(name)
