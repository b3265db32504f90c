"""Write-ahead logging and crash recovery.

The paper's engines pair their concurrency control with a redo log whose
flush-at-commit cost dominates the "long transactions" experiments
(Section 6.1.3) and whose flush-then-release ordering the authors had to
fix in InnoDB (Section 4.4).  This package provides the durability leg
for this engine:

* :mod:`repro.wal.records` — typed log records;
* :mod:`repro.wal.log` — an append-only log with explicit flush points
  that concurrent commits share by LSN, and optional file persistence;
* :mod:`repro.wal.recovery` — redo recovery: rebuild the database from
  the flushed prefix of a log.

The engine buffers writes privately until commit (no-steal), so recovery
is pure redo: committed-and-flushed transactions are replayed in commit
order, everything else vanishes — which is exactly the crash semantics
the tests assert.
"""

from repro.wal.records import (
    BeginRecord,
    CommitRecord,
    AbortRecord,
    WriteRecord,
    CheckpointRecord,
    LogRecord,
)
from repro.wal.log import WriteAheadLog
from repro.wal.recovery import recover_database, replay
from repro.wal.checkpoint import (
    recover_from_checkpoint,
    restore_checkpoint,
    take_checkpoint,
)

__all__ = [
    "LogRecord",
    "BeginRecord",
    "CommitRecord",
    "AbortRecord",
    "WriteRecord",
    "CheckpointRecord",
    "WriteAheadLog",
    "recover_database",
    "replay",
    "take_checkpoint",
    "restore_checkpoint",
    "recover_from_checkpoint",
]
