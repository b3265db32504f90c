"""Transactions.

A :class:`Transaction` is a handle bound to one :class:`~repro.engine.database.Database`.
Its public methods block the calling thread through every wait the
engine raises (a lock, a deferrable read's safe snapshot), which suits
examples, tests and threaded clients.  The engine itself never parks a
thread; the discrete-event simulator steps its non-blocking primitives
directly.

Transaction state carries everything the Serializable SI algorithm needs
(Section 3.2/3.3): the conflict slots, the snapshot, the commit timestamp,
and the suspended-after-commit flag that keeps the transaction record (and
its SIREAD locks) alive until no concurrent transaction remains.
"""

from __future__ import annotations

import enum
import time
from typing import Any, Hashable

from repro.engine.isolation import IsolationLevel
from repro.engine.latches import assert_no_latches_held
from repro.engine.waits import Completion
from repro.errors import (
    CompletionWaitRequired,
    TransactionAbortedError,
    TransactionStateError,
)
from repro.mvcc.snapshot import Snapshot


class TransactionStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One transaction; created via :meth:`Database.begin`."""

    __slots__ = (
        "_db",
        "id",
        "isolation",
        "policy",
        "begin_seq",
        "status",
        "snapshot",
        "commit_ts",
        "suspended",
        "in_conflict",
        "out_conflict",
        "doom_error",
        "write_set",
        "write_kinds",
        "read_only",
        "snapshot_safe",
        "_safe_event",
        "prepared",
        "global_id",
        "commit_lsn",
        "n_reads",
        "n_writes",
        "n_scans",
        "sireads",
    )

    def __init__(
        self,
        database,
        txn_id: int,
        isolation: IsolationLevel,
        begin_seq: int,
        policy=None,
    ):
        self._db = database
        self.id = txn_id
        self.isolation = isolation
        #: the CCPolicy implementing this transaction's isolation level;
        #: every discipline-specific engine decision dispatches through it.
        self.policy = (
            policy if policy is not None else database._policies[isolation]
        )
        #: monotonic begin order (used by victim/deadlock policies)
        self.begin_seq = begin_seq
        self.status = TransactionStatus.ACTIVE
        self.snapshot: Snapshot | None = None
        self.commit_ts: int | None = None
        #: True after commit while the record is retained for conflict
        #: detection (Section 3.3); cleaned up by the database later.
        self.suspended = False
        #: conflict slots managed by the tracker (bool or txn reference)
        self.in_conflict: Any = None
        self.out_conflict: Any = None
        #: pending abort requested by SSI/deadlock resolution ("doom")
        self.doom_error: TransactionAbortedError | None = None
        #: private uncommitted writes: (table, key) -> value or TOMBSTONE
        self.write_set: dict[tuple[str, Hashable], Any] = {}
        #: how each write-set entry came to be ("write"|"insert"|"delete")
        self.write_kinds: dict[tuple[str, Hashable], str] = {}
        #: declared read-only at begin(); writes raise
        #: TransactionStateError and the safe-snapshot monitor may mark
        #: the snapshot safe (Ports & Grittner Section 2.4).
        self.read_only = False
        #: None = not watched (read/write txn), False = watched but not
        #: yet proven safe, True = the snapshot can no longer join a
        #: dangerous structure — SIREADs dropped, detection skipped.
        self.snapshot_safe: bool | None = None
        #: a deferrable transaction's pending safe-snapshot verdict, which
        #: the monitor (or a doom) fires via ``.set()``; None once it runs
        #: on a safe snapshot, and for every other transaction.
        self._safe_event: Completion | None = None
        #: True between prepare_for_commit() and the coordinator's
        #: commit/abort decision (two-phase commit participant state).
        #: A prepared transaction has passed local certification and
        #: can no longer be chosen as an SSI or deadlock victim — its
        #: fate belongs to the coordinator (prepared-transaction-wins).
        self.prepared = False
        #: coordinator-assigned global transaction id, or None for a
        #: purely local transaction.  Rendered into cross-shard conflict
        #: summaries so the coordinator can name conflict partners.
        self.global_id: int | None = None
        #: LSN of the commit record, appended with the write records
        #: as the versions install; 0 while nothing is logged (no WAL, no
        #: writes, not committed).  The commit flushes through it.
        self.commit_lsn = 0
        #: rows read, writes, scans: one thread drives a transaction, so
        #: tallied latch-free; folded into ``db.stats`` as it ends.
        self.n_reads = self.n_writes = self.n_scans = 0
        #: point SIREADs kept on version chains: chain -> (table, key);
        #: retirement empties it (ids left on chains die with the registry)
        self.sireads: dict = {}

    # ----------------------------------------------------------- state

    @property
    def is_active(self) -> bool:
        return self.status is TransactionStatus.ACTIVE

    @property
    def is_committed(self) -> bool:
        return self.status is TransactionStatus.COMMITTED

    @property
    def is_aborted(self) -> bool:
        return self.status is TransactionStatus.ABORTED

    @property
    def read_ts(self) -> int | None:
        """The snapshot timestamp — the paper's begin(T) — or None if the
        snapshot has not been allocated yet (deferred, Section 4.5)."""
        return self.snapshot.read_ts if self.snapshot else None

    @property
    def begin_ts(self) -> int | None:
        """Alias used by victim policies: snapshot time, else begin order."""
        return self.read_ts if self.read_ts is not None else self.begin_seq

    def overlaps(self, other: "Transaction") -> bool:
        """Were self and other ever concurrent?  (Both snapshots known.)"""
        if self.read_ts is None or other.read_ts is None:
            return self.is_active and other.is_active
        self_end = self.commit_ts if self.commit_ts is not None else float("inf")
        other_end = other.commit_ts if other.commit_ts is not None else float("inf")
        return self.read_ts < other_end and other.read_ts < self_end

    # ----------------------------------------------------- blocking ops

    def read(self, table: str, key: Hashable) -> Any:
        """Read a key; raises KeyNotFoundError if not visible."""
        return self._run(lambda: self._db.read(self, table, key))

    def get(self, table: str, key: Hashable, default: Any = None) -> Any:
        """Read a key, returning ``default`` when not visible."""
        return self._run(lambda: self._db.get(self, table, key, default))

    def read_for_update(self, table: str, key: Hashable) -> Any:
        """Locking read (SELECT ... FOR UPDATE): the promotion primitive."""
        return self._run(lambda: self._db.read_for_update(self, table, key))

    def write(self, table: str, key: Hashable, value: Any) -> None:
        """Blind upsert of a key.  For phantom-safe creation of keys that
        might not exist, use :meth:`insert`."""
        self._run(lambda: self._db.write(self, table, key, value))

    def insert(self, table: str, key: Hashable, value: Any) -> None:
        self._run(lambda: self._db.insert(self, table, key, value))

    def delete(self, table: str, key: Hashable) -> None:
        self._run(lambda: self._db.delete(self, table, key))

    def scan(
        self,
        table: str,
        lo: Hashable | None = None,
        hi: Hashable | None = None,
    ) -> list[tuple[Hashable, Any]]:
        """Predicate read: all visible (key, value) with lo <= key <= hi."""
        return self._run(lambda: self._db.scan(self, table, lo, hi))

    def index_scan(
        self,
        index: str,
        lo: Hashable | None = None,
        hi: Hashable | None = None,
    ) -> list[tuple[Hashable, Hashable]]:
        """Range scan over a secondary index: (index_key, primary_key)."""
        return self._run(lambda: self._db.index_scan(self, index, lo, hi))

    def index_lookup(self, index: str, index_key: Hashable) -> list[Hashable]:
        """Primary keys matching one index key."""
        return self._run(lambda: self._db.index_lookup(self, index, index_key))

    def commit(self) -> None:
        self._run(lambda: self._db.commit(self))

    def abort(self) -> None:
        self._db.abort(self)

    # --------------------------------------------------- context manager

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.is_active:
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False

    # ----------------------------------------------------------- helpers

    def _run(self, op):
        """Run an engine op, blocking through its waits."""
        if not self.is_active:
            if self.doom_error is not None:
                raise type(self.doom_error)(str(self.doom_error), txn_id=self.id)
            raise TransactionStateError(f"transaction {self.id} is {self.status.value}")
        while True:
            try:
                return op()
            except CompletionWaitRequired as wait:
                block_on(wait)

    def __repr__(self) -> str:
        return (
            f"Transaction(id={self.id}, {self.isolation.value}, "
            f"{self.status.value}, read_ts={self.read_ts})"
        )


def block_on(wait: CompletionWaitRequired) -> None:
    """Park the calling thread until ``wait.completion`` fires — the
    blocking executors' one wait (:meth:`Transaction._run`,
    :func:`repro.sim.direct.run_program`); the caller then retries the
    operation, which finds out how the wait ended.

    Untimed unless one of two duties of the waiting transaction's
    database applies: a configured ``lock_timeout`` cancels a lock
    wait's request once it is due (every other wait has no deadline),
    and PERIODIC deadlock detection must keep sweeping even when every
    client thread is blocked (Berkeley DB db_perf style) — the sole
    consumer of ``wait_poll_interval`` on a thread.  The cancel resolves
    the request, which fires the completion.

    A lock wait's wall-clock time feeds ``lock_wait_time`` (the
    simulator feeds the same histogram in simulated seconds); a
    safe-snapshot verdict is not a lock wait.
    """
    # Sleeping while holding any engine latch would stall every other
    # thread needing it; the wait exception must fully unwind first.
    assert_no_latches_held("lock wait")
    db, woken, request = wait.txn._db, wait.completion, wait.request
    wait_started = time.monotonic()
    timeout = None if request is None else db.config.lock_timeout
    if db.needs_wait_polling:
        deadline = None if timeout is None else wait_started + timeout
        while not woken.wait(timeout=db.wait_poll_interval):
            if deadline is not None and time.monotonic() >= deadline:
                db.cancel_lock_request(request)
                continue  # the denial resolves the request, fires woken
            db.poll_waiters()
    elif timeout is not None:
        if not woken.wait(timeout=timeout):
            # Either the cancel wins (its doom denies the request) or a
            # racing grant already resolved it — both fire woken promptly.
            db.cancel_lock_request(request)
            woken.wait()
    else:
        woken.wait()
    if request is not None:
        db.metrics.histogram("lock_wait_time").observe(
            time.monotonic() - wait_started
        )
