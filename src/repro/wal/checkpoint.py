"""Checkpoints: bounding the redo log.

A checkpoint materialises the committed state of every table (with the
original commit timestamps, so recovered snapshots behave identically),
stamps the log with a checkpoint record, and allows the log prefix to be
truncated.  Recovery becomes: restore the newest checkpoint, then redo
the durable commits the image does not hold — those with a commit
timestamp above its clock (:func:`repro.wal.recovery.replay`).

Index *contents* are checkpointed like any table; index *definitions*
(the key functions) are code, not data, and must be re-registered by the
application after restore — the same contract as the schema itself.
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.mvcc.version import TOMBSTONE, Version
from repro.wal.log import WriteAheadLog, replace_file
from repro.wal.recovery import replay


def take_checkpoint(db: Database, path: str | None = None) -> dict:
    """Snapshot the committed state of ``db``.

    Stamps and then flushes the attached WAL (if any) so the returned
    image pairs with a checkpoint LSN; with ``path``, the image is
    pickled to disk.  Returns the image (a plain dict).
    """
    # The txn latch (taken first, per the rank order) freezes the table
    # dict against concurrent DDL and bulk load — create_table/load
    # mutate it under that latch, so iterating it latch-free could raise
    # mid-iteration or capture a half-loaded table.  The commit latch
    # then excludes version installation, so the image is a
    # transactionally consistent committed prefix (commits are entirely
    # before or entirely after the checkpoint).
    with db._txn_latch, db._commit_latch:
        tables: dict[str, list[tuple[Any, Any, int, int, bool]]] = {}
        for name, table in db._tables.items():
            rows = []
            # Chunked walk: the commit latch above is what makes
            # the image consistent — version installs are excluded — so
            # the table latch need not be held across the whole table;
            # dropping it between chunks lets concurrent readers proceed.
            for chunk in table.scan_chunks(None, None):
                for key, chain in chunk:
                    version = chain.latest()
                    if version is None:
                        continue
                    rows.append((
                        key, None if version.is_tombstone else version.value,
                        version.commit_ts, version.creator_id,
                        version.is_tombstone,
                    ))
            tables[name] = rows
        checkpoint_lsn = 0
        if db.wal is not None:
            # An in-memory append, made under the commit latch so the
            # record's LSN precedes every later commit's records, which
            # truncate_before(checkpoint_lsn) relies on.  The flush runs
            # once the latches are released.
            record = db.wal.log_checkpoint()  # latch-ok: LSN must precede later commits
            checkpoint_lsn = record.lsn
        image = {
            "tables": tables,
            "checkpoint_lsn": checkpoint_lsn,
            "clock": db.clock.now(),
        }
    if db.wal is not None:
        db.wal.flush()
    if path is not None:
        replace_file(path, pickle.dumps(image, pickle.HIGHEST_PROTOCOL))
    return image


def restore_checkpoint(
    image: dict | str, config: EngineConfig | None = None
) -> Database:
    """Rebuild a database from a checkpoint image (or its file path)."""
    if isinstance(image, str):
        with open(image, "rb") as handle:
            image = pickle.load(handle)
    db = Database(config or EngineConfig())
    for name, rows in image["tables"].items():
        table = db.create_table(name)
        for key, value, commit_ts, creator_id, is_tombstone in rows:
            if is_tombstone and commit_ts == 0:
                continue
            chain, _pages = table.ensure_chain(key)
            chain.install(Version(
                value=TOMBSTONE if is_tombstone else value,
                commit_ts=commit_ts,
                creator_id=creator_id,
            ))
            # New transactions must not take the id of a version's creator.
            db._next_txn_id = max(db._next_txn_id, creator_id + 1)
    db.clock.advance_to(image["clock"])
    return db


def recover_from_checkpoint(
    image: dict | str,
    wal: WriteAheadLog,
    config: EngineConfig | None = None,
) -> Database:
    """Full recovery: restore the checkpoint, redo the durable commits
    it does not hold."""
    return replay(wal, base=restore_checkpoint(image, config))
