"""Engine configuration.

The knobs correspond to design choices discussed in the paper and are the
subjects of the ablation benchmarks listed in DESIGN.md.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class LockGranularity(enum.Enum):
    """What a lock resource names.

    * ``RECORD`` — row-level locks plus one key-range lock per scan (the
      InnoDB prototype, Sections 4.4-4.6; the range locks the predicate
      its gap locks protect).
    * ``PAGE`` — point reads and writes lock B+-tree leaf pages, and
      first-committer-wins compares page versions (the Berkeley DB
      prototype, Sections 4.1-4.3).  Coarser: false sharing between rows
      on one page produces the false-positive aborts of Figure 6.4.
      Scans still lock one key range, as under ``RECORD``, and a
      writer takes its record lock after its page lock so the range
      meets it: granularity names the point-lock target, not a second
      phantom protocol.
    """

    RECORD = "record"
    PAGE = "page"


class DeadlockMode(enum.Enum):
    """When lock-wait cycles are looked for.

    * ``IMMEDIATE`` — cycle check at enqueue time (InnoDB-style); the
      requester whose wait closes the cycle is the victim.
    * ``PERIODIC`` — only an external sweep detects deadlocks, dooming
      the youngest transaction of each cycle (the Berkeley DB ``db_perf``
      configuration; the simulator sweeps every
      :data:`~repro.sim.scheduler.DEADLOCK_INTERVAL` of simulated time,
      reproducing the S2PL stalls of Section 6.1.3).
    """

    IMMEDIATE = "immediate"
    PERIODIC = "periodic"


@dataclass(slots=True)
class EngineConfig:
    """All engine tunables with the paper-faithful defaults.

    Attributes:
        granularity: lock/version granularity (see :class:`LockGranularity`).
        page_size: B+-tree node order; under PAGE granularity this sets
            contention (SmallBank experiments use small pages).
        precise_conflicts: True -> enhanced reference-based conflict
            tracker (Figs 3.9/3.10); False -> basic booleans (Fig 3.3).
        siread_upgrade: drop a SIREAD lock when the same transaction
            acquires EXCLUSIVE on the item (Section 3.7.3).
        deferred_snapshot: allocate the read view only after the first
            statement's lock is granted (Section 4.5) — single-statement
            updates then never hit first-committer-wins.
        victim_policy: "pivot" | "youngest" | "oldest" (Section 3.7.2).
        deadlock_mode: see :class:`DeadlockMode`.
        eager_cleanup: clean suspended committed transactions whenever the
            oldest active transaction commits (InnoDB-style, Section
            4.6.1); False defers cleanup until the suspended list exceeds
            ``cleanup_threshold`` (Berkeley DB-style, Section 4.3.1).
        cleanup_threshold: lazy-cleanup trigger size.
        record_history: feed every operation to a
            :class:`~repro.sgt.history.HistoryRecorder` for the oracle.
        wal_flush_on_commit: when a write-ahead log is attached, flush it
            inside prepare_commit — i.e. while locks are still held, the
            ordering the paper enforces in InnoDB (Section 4.4).  Off,
            commits are only durable up to the last explicit flush
            (matching the paper's "without flushing the log" runs).

    Sharing a flush is not a knob: a commit flushes the log through its
    own commit record, and concurrent commits share fsyncs by LSN
    (:mod:`repro.wal.log`).
    """

    granularity: LockGranularity = LockGranularity.RECORD
    page_size: int = 64
    precise_conflicts: bool = True
    siread_upgrade: bool = True
    deferred_snapshot: bool = True
    victim_policy: str = "pivot"
    deadlock_mode: DeadlockMode = DeadlockMode.IMMEDIATE
    eager_cleanup: bool = True
    cleanup_threshold: int = 1024
    record_history: bool = False
    wal_flush_on_commit: bool = True
    #: abort a lock wait after this many seconds (None = wait forever);
    #: simulated seconds under the simulator, wall-clock for threads —
    #: InnoDB's innodb_lock_wait_timeout.
    lock_timeout: float | None = None
    #: lock-table budget for SIREAD state (None = unbounded, the paper's
    #: behaviour).  When the granted-lock count exceeds the budget, the
    #: lock manager folds the busiest holders' record and key-range
    #: SIREADs on each table into one key range over their span — a
    #: coarser unit in the spirit of Ports & Grittner's memory bound.
    #: Escalation may only introduce false-positive aborts, never miss an
    #: rw-antidependency.  RECORD granularity only.
    siread_budget: int | None = None

    @classmethod
    def berkeleydb_style(cls, page_size: int = 8, **overrides) -> "EngineConfig":
        """The Berkeley DB prototype: page locks, basic tracker, lazy
        cleanup, periodic deadlock detection."""
        base = dict(
            granularity=LockGranularity.PAGE,
            page_size=page_size,
            precise_conflicts=False,
            deadlock_mode=DeadlockMode.PERIODIC,
            eager_cleanup=False,
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def innodb_style(cls, **overrides) -> "EngineConfig":
        """The InnoDB prototype: row + key-range locks, enhanced tracker, eager
        cleanup, immediate deadlock detection (the defaults)."""
        return cls(**overrides)
