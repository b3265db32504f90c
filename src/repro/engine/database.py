"""The database engine.

Wires together the MVCC substrate, the lock manager and the Serializable
SI conflict tracker into the transactional API of the paper's prototypes:

* plain snapshot isolation with first-updater-wins write locking and the
  deferred read-view optimisation (Sections 2.5, 4.5);
* strict two-phase locking with a blocking key-range lock per scan for
  phantoms (2.2.1, the predicate 2.5.2's gap locks protect);
* Serializable SI: SIREAD locks, newer-version checks, dangerous-structure
  detection at mark and commit time, suspended committed transactions and
  their cleanup (Chapter 3);
* an SGT-certifier level as the precise baseline (2.7).

``Database`` is the façade: the read path (point reads, scans, SIREAD
placement) lives in :mod:`repro.engine.reads` and the commit pipeline
(commit, two-phase commit, cleanup of suspended transactions) in
:mod:`repro.engine.commit`, both mixed in here.

Threading model: the engine is internally latched along the hierarchy
of :mod:`repro.engine.latches`, which lists what each latch protects.
No latch is held across a wait: an operation that must wait raises
:class:`~repro.errors.CompletionWaitRequired` after fully unwinding and
is re-invoked once the wait resolves; lock acquisition is idempotent,
and operations perform no side effects before their lock acquisitions,
so re-invocation is safe.  A commit appends its log records under the
commit latch, so LSN order is commit order; WAL flushes and trace/history
reporting run outside every engine latch.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Hashable, Iterable

from repro.cc import build_policies
from repro.cc.policy import CCPolicy
from repro.engine.commit import CommitPipeline
from repro.engine.config import DeadlockMode, EngineConfig, LockGranularity
from repro.engine.indexes import IndexDef, KeyFunc
from repro.engine.isolation import IsolationLevel
from repro.engine.latches import latch_acquisitions, make_latch
from repro.engine.reads import ReadPath
from repro.engine.transaction import Transaction, TransactionStatus
from repro.engine.waits import Completion
from repro.errors import (
    ABORT_REASONS,
    DeadlockError,
    DuplicateKeyError,
    KeyNotFoundError,
    LockTimeoutError,
    LockWaitRequired,
    TableError,
    TransactionAbortedError,
    TransactionStateError,
    UpdateConflictError,
)
from repro.locking.deadlock import youngest
from repro.locking.manager import (
    AcquireResult,
    AcquireStatus,
    LockManager,
    LockRequest,
    Resource,
    page_resource,
    record_resource,
)
from repro.locking.modes import LockMode
from repro.mvcc.snapshot import Snapshot
from repro.mvcc.timestamps import LogicalClock
from repro.mvcc.version import TOMBSTONE, VersionChain
from repro.obs.explain import AbortExplanation, explain_abort as _explain_abort
from repro.obs.registry import OBS_LATCH, MetricsRegistry
from repro.obs.trace import EventTrace, EventType
from repro.sgt.history import HistoryRecorder
from repro.storage.btree import SUPREMUM
from repro.storage.table import Table

_INFINITY = float("inf")


class Database(ReadPath, CommitPipeline):
    """A multi-table, multi-version transactional database.

    Args:
        config: engine tunables; defaults to the InnoDB-style
            configuration (record locks, enhanced conflict tracker).
    """

    #: real-time polling interval used by blocked threads to drive the
    #: periodic deadlock sweep (threaded mode only).
    wait_poll_interval = 0.02

    def __init__(self, config: EngineConfig | None = None, wal=None):
        self.config = config or EngineConfig()
        #: optional write-ahead log (repro.wal.WriteAheadLog); commits
        #: append redo records as they install and, with
        #: wal_flush_on_commit, flush before locks are released.
        self.wal = wal
        self.clock = LogicalClock()
        self._txn_latch = make_latch("txn")
        self._tracker_latch = make_latch("tracker")
        self._commit_latch = make_latch("commit")
        self._tables: dict[str, Table] = {}
        self._next_txn_id = 1

        handler = None
        if self.config.deadlock_mode is DeadlockMode.IMMEDIATE:
            handler = self._on_deadlock
        self.locks = LockManager(
            deadlock_handler=handler, siread_upgrade=self.config.siread_upgrade
        )
        #: True when blocked threads must keep a poll tick alive to drive
        #: the periodic deadlock sweep; with immediate detection, lock
        #: waits are pure push wakeups (no timeout polling at all).
        self.needs_wait_polling = (
            self.config.deadlock_mode is DeadlockMode.PERIODIC
        )
        #: the lock-table budget :meth:`LockManager.escalate` enforces
        #: after SIREAD grants; RECORD granularity only, because
        #: escalation folds record and range SIREADs and a PAGE reader's
        #: page SIREADs cannot be folded
        self._siread_budget = (
            self.config.siread_budget
            if self.config.granularity is LockGranularity.RECORD
            else None
        )
        #: safe-snapshot monitor (Ports & Grittner §2.4), published by
        #: SSIPolicy.install when the SSI family is available.
        self.safe_snapshots = None

        #: transactions findable by id: active, plus committed-suspended
        self._registry: dict[int, Transaction] = {}
        self._active: dict[int, Transaction] = {}
        #: every snapshot handed out, ``(snapshot, txn id)`` in read_ts
        #: order; live while its transaction is active and still reads
        #: it.  The first live one is the cleanup horizon (SxactGlobalXmin).
        self._snapshots: deque = deque()
        #: PAGE granularity: last commit timestamp per (table, page) —
        #: Berkeley DB versions whole pages, so first-committer-wins
        #: fires on page conflicts between unrelated rows (Section 4.2).
        #: None under RECORD.  Written under the commit latch; read
        #: optimistically (point ``dict.get``).
        self._page_commit_ts: dict[tuple[str, int], int] | None = (
            {} if self.config.granularity is LockGranularity.PAGE else None
        )
        #: secondary indexes, by name and by base table
        self._indexes: dict[str, IndexDef] = {}
        self._indexes_by_table: dict[str, list[IndexDef]] = {}

        self.history: HistoryRecorder | None = (
            HistoryRecorder() if self.config.record_history else None
        )

        #: unified observability: one registry absorbs the engine, lock
        #: manager, tracker and certifier counters behind a deep-copy
        #: snapshot API (``db.metrics.snapshot()``).
        self.metrics = MetricsRegistry()
        #: engine counters — a CounterGroup (dict subclass), so hot-path
        #: increments keep native dict speed.  Each key has one
        #: consistent guard: begins/suspended_peak/cleaned under the txn
        #: latch, aborts/mixed_edges_dropped under the tracker latch,
        #: vacuum_pause_events via ``CounterGroup.inc`` (obs latch);
        #: reads/writes/scans/commits are folded in by _fold_tallies.
        self.stats = self.metrics.group("engine", {
            "begins": 0,
            "commits": 0,
            "aborts": {reason: 0 for reason in ABORT_REASONS},
            "reads": 0,
            "writes": 0,
            "scans": 0,
            "suspended_peak": 0,
            "cleaned": 0,
            "mixed_edges_dropped": 0,
            "vacuum_pause_events": 0,
        })
        # The lock manager (and the policy-owned tracker/certifier, below)
        # keep their counters in CounterGroups; adopting them (same
        # object, no copy) folds every stats dict into one surface.
        self.metrics.register_group("locks", self.locks.stats)
        if wal is not None:
            # Records appended and flushes run: commits per fsync.
            self.metrics.register_group("wal", wal.stats)
        # Instantaneous lock-table telemetry: the gauges the SIREAD
        # budget is judged against (counters can't answer "how big is the
        # lock table right now").
        self.metrics.register_gauge("lock_table_size", self.locks.table_size)
        self.metrics.register_gauge(
            "siread_locks", self.locks.siread_lock_count
        )
        self.metrics.register_gauge(
            "escalated_locks", self.locks.escalated_lock_count
        )
        self.metrics.register_gauge("cleanup_horizon_lag", self._horizon_lag)
        #: one CCPolicy instance per isolation level.  Policies that own
        #: engine subsystems publish them during install (SSIPolicy sets
        #: ``self.tracker``, SGTPolicy sets ``self.certifier``) and adopt
        #: their metrics groups into the registry.
        self._policies = build_policies(self)
        #: policies overriding ``on_transaction_retired`` that have begun
        #: a transaction (tracker latch); until then nothing holds state
        #: to retire, and a non-retaining finalize skips the tracker latch.
        self._retiring_policies: list[CCPolicy] = []
        self._h_lock_wait = self.metrics.histogram("lock_wait_time")
        #: event-trace layer — off (None) by default; every emission site
        #: is guarded by a single ``is not None`` test.
        self.trace: EventTrace | None = None
        CommitPipeline.__init__(self)

    # ------------------------------------------------------ observability

    def enable_tracing(self, *sinks, capacity: int = 8192) -> EventTrace:
        """Turn on the event-trace layer.

        ``sinks`` are objects with an ``emit(event)`` method (e.g.
        :class:`~repro.obs.trace.JsonlFileSink`); with none given, a
        bounded in-memory ring buffer of ``capacity`` events is attached.
        Returns the :class:`~repro.obs.trace.EventTrace` for querying.
        """
        with self._txn_latch:
            trace = EventTrace(*sinks, clock=self.clock.now, capacity=capacity)
            self.trace = trace
            self.locks.trace = trace
            return trace

    def disable_tracing(self) -> None:
        """Detach and close the trace layer (no-op when already off)."""
        with self._txn_latch:
            trace, self.trace = self.trace, None
            self.locks.trace = None
            if trace is not None:
                trace.close()

    def explain_abort(self, txn_id: int) -> AbortExplanation:
        """Reconstruct why transaction ``txn_id`` was doomed, from the
        trace: abort reason, the rw-antidependencies it participated in,
        and — for a dangerous-structure abort — the pivot triple
        T_in -> pivot -> T_out.  Requires :meth:`enable_tracing`."""
        if self.trace is None:
            raise TransactionStateError(
                "explain_abort needs the event trace; call enable_tracing() first"
            )
        return _explain_abort(self.trace, txn_id)

    # ------------------------------------------------------------- schema

    def create_table(self, name: str, page_size: int | None = None) -> Table:
        """Create a table; ``page_size`` overrides the engine default."""
        with self._txn_latch:
            if name in self._tables:
                raise TableError(f"table {name!r} already exists")
            table = Table(name, page_size=page_size or self.config.page_size)
            self._tables[name] = table
            return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise TableError(f"no such table: {name!r}") from None

    def create_index(
        self,
        name: str,
        table: str,
        key_func: KeyFunc,
        unique: bool = False,
    ) -> IndexDef:
        """Create a secondary index over ``table``.

        The index is an ordinary ordered table maintained inside every
        transaction that writes the base table, so index range scans are
        phantom-safe predicate reads and unique indexes are transactional
        unique constraints.  Existing committed rows are indexed
        immediately.
        """
        with self._txn_latch:
            base = self.table(table)  # validates
            self.create_table(name)
            definition = IndexDef(name=name, table=table, key_func=key_func,
                                  unique=unique)
            self._indexes[name] = definition
            self._indexes_by_table.setdefault(table, []).append(definition)
            rows = []
            for key, chain in base.scan_chains(None, None):
                version = chain.latest()
                if version is None or version.is_tombstone:
                    continue
                entry = definition.entry_for(key, version.value)
                if entry is not None:
                    rows.append((entry, key))
            self.load(name, rows)
            return definition

    def index(self, name: str) -> IndexDef:
        try:
            return self._indexes[name]
        except KeyError:
            raise TableError(f"no such index: {name!r}") from None

    def load(self, name: str, rows: Iterable[tuple[Hashable, Any]]) -> None:
        """Bulk-load initial data, visible to every transaction.
        Registered secondary indexes are populated alongside."""
        table = self.table(name)
        definitions = self._indexes_by_table.get(name, ())
        with self._txn_latch:
            for key, value in rows:
                table.load(key, value)
                for definition in definitions:
                    entry = definition.entry_for(key, value)
                    if entry is not None:
                        self.table(definition.name).load(entry, key)

    # ------------------------------------------------------------ lifecycle

    def begin(
        self,
        isolation: IsolationLevel | str = IsolationLevel.SERIALIZABLE_SSI,
        read_only: bool = False,
        deferrable: bool = False,
        *,
        global_id: int | None = None,
    ) -> Transaction:
        """Start a transaction at the given isolation level (Fig 3.1).

        ``read_only=True`` declares the transaction will never write
        (writes raise :class:`TransactionStateError`); under the SSI
        family the safe-snapshot monitor then watches for the moment its
        snapshot can no longer join a dangerous structure and releases
        its SIREAD locks early (Ports & Grittner §2.4).
        ``deferrable=True`` (implies read-only) is PostgreSQL's
        SERIALIZABLE READ ONLY DEFERRABLE: ``begin`` returns at once and
        takes no snapshot; the first read or scan waits for a safe one
        (:meth:`_take_safe_snapshot`), then runs with zero SIREAD
        retention.
        """
        isolation = IsolationLevel.parse(isolation)
        # The single level -> behavior lookup: everything downstream
        # dispatches through txn.policy.
        policy = self._policies[isolation]
        if deferrable:
            read_only = True
        if policy.retires and policy not in self._retiring_policies:
            with self._tracker_latch:
                if policy not in self._retiring_policies:
                    self._retiring_policies.append(policy)
        with self._txn_latch:
            txn = Transaction(
                self, self._next_txn_id, isolation, self.clock.next(),
                policy=policy,
            )
            txn.read_only = read_only
            txn.global_id = global_id
            self._next_txn_id += 1
            self._registry[txn.id] = txn
            self._active[txn.id] = txn
            self.stats["begins"] += 1
        if policy.tracks_begin:
            with self._tracker_latch:
                policy.on_begin(txn)
        if self.trace is not None:
            self.trace.emit(EventType.BEGIN, txn.id, isolation=isolation.value)
        if policy.uses_snapshots and deferrable:
            txn._safe_event = Completion(txn, self.locks)
        elif policy.uses_snapshots and not self.config.deferred_snapshot:
            self._assign_snapshot(txn)
        if self.history is not None:
            self.history.on_begin(txn.id)
        return txn

    # The commit pipeline's public steps, bound on the façade itself so
    # that the class defines every step its callers name.
    commit = CommitPipeline.commit
    prepare_commit = CommitPipeline.prepare_commit
    finalize_commit = CommitPipeline.finalize_commit
    prepare_for_commit = CommitPipeline.prepare_for_commit
    commit_prepared = CommitPipeline.commit_prepared
    cleanup_suspended = CommitPipeline.cleanup_suspended

    def abort(self, txn: Transaction, reason: str | None = None) -> None:
        """Roll back: discard writes, release every lock (including
        SIREADs — only committed transactions retain them)."""
        if not txn.is_active:
            return
        self._abort_internal(txn, reason or (txn.doom_error.reason if txn.doom_error else "aborted"))

    # ------------------------------------------------------------- reading

    def read(self, txn: Transaction, table_name: str, key: Hashable) -> Any:
        """Fig 3.4's modified read (plus the S2PL/SI/SGT variants)."""
        self._check_op(txn)
        value, found = self._read_internal(txn, table_name, key)
        if not found:
            raise KeyNotFoundError(table_name, key)
        return value

    def get(
        self, txn: Transaction, table_name: str, key: Hashable, default: Any = None
    ) -> Any:
        self._check_op(txn)
        value, found = self._read_internal(txn, table_name, key)
        return value if found else default

    def read_for_update(self, txn: Transaction, table_name: str, key: Hashable) -> Any:
        """SELECT ... FOR UPDATE: acquires the EXCLUSIVE lock before the
        snapshot is chosen (Section 4.5), providing Oracle-style promotion
        semantics (Section 2.6.2)."""
        self._check_op(txn)
        self._check_write(txn)
        table = self.table(table_name)
        chain = self._acquire_write_locks(txn, table, table_name, key)
        if chain is None:  # PAGE granularity, or installed meanwhile
            chain = table.chain(key)
        self._ensure_snapshot(txn)
        # Promotion semantics: a locking read of an item with a newer
        # committed version conflicts exactly like a write would.
        self._first_committer_check(txn, table_name, key)
        value, found = self._visible_value(txn, table_name, key, chain)
        if not found:
            raise KeyNotFoundError(table_name, key)
        return value

    def scan(
        self,
        txn: Transaction,
        table_name: str,
        lo: Hashable | None = None,
        hi: Hashable | None = None,
    ) -> list[tuple[Hashable, Any]]:
        """Predicate read over [lo, hi] with phantom protection: one key
        range on [lo, hi] in the transaction's read mode — Fig 3.6's
        SIREAD for SSI/SGT, a blocking SHARED range for S2PL.

        Execution: the scan places its key range first (:meth:`_walk_range`)
        at either lock granularity; the key set is then materialised in
        leaf-page-sized chunks of B+-tree leaf slices — dropping the table
        latch between chunks — and visibility is resolved batch-at-a-time
        against the one snapshot, with one CC-policy call per scan.  The
        scan is counted once its walk returns: an S2PL walk that waits is
        retried whole.
        """
        self._check_op(txn)
        table = self.table(table_name)
        if txn._safe_event is not None:
            self._take_safe_snapshot(txn)
        self._ensure_snapshot(txn)
        chains = self._walk_range(txn, table, table_name, lo, hi)
        txn.n_scans += 1
        rows = self._resolve_scan_rows(txn, table_name, chains)
        self._record_scan(txn, table_name, (lo, hi), rows)
        # Own uncommitted writes overlay the scan result.
        return self._overlay_write_set(txn, table_name, lo, hi, rows)

    # ------------------------------------------------------------- writing

    def write(self, txn: Transaction, table_name: str, key: Hashable, value: Any) -> None:
        """Fig 3.5's modified write: blind upsert of a single item.

        A brand-new key lies inside every key range covering it, so a
        scanner's range meets the write exactly as it meets an insert;
        under PAGE granularity a new key takes :meth:`insert`'s page
        steps."""
        self._write(txn, table_name, key, value, "write")

    def insert(self, txn: Transaction, table_name: str, key: Hashable, value: Any) -> None:
        """Fig 3.7's insert: the EXCLUSIVE record lock on the new key
        meets every concurrent scanner whose key range covers it."""
        self._write(txn, table_name, key, value, "insert")

    def delete(self, txn: Transaction, table_name: str, key: Hashable) -> None:
        """Fig 3.7's delete: installs a tombstone version at commit."""
        self._write(txn, table_name, key, TOMBSTONE, "delete")

    def _write(
        self, txn: Transaction, table_name: str, key: Hashable, value: Any,
        kind: str,
    ) -> None:
        """The one write path: lock, first-committer-wins, the existence
        check of an insert or delete, the policy's ``on_write``, index
        maintenance, then the write-set entry."""
        self._check_op(txn)
        self._check_write(txn)
        table = self.table(table_name)
        page_steps = self.config.granularity is LockGranularity.PAGE and (
            kind == "insert" or kind == "write" and table.chain(key) is None
        )
        self._acquire_write_locks(txn, table, table_name, key)
        self._ensure_snapshot(txn)
        self._first_committer_check(txn, table_name, key)
        if kind != "write":
            exists = self._existing(txn, table_name, key)[1]
            if kind == "insert" and exists:
                raise DuplicateKeyError(table_name, key)
            if kind == "delete" and not exists:
                raise KeyNotFoundError(table_name, key)
        if txn.policy.tracks_writes:
            with self._tracker_latch:
                txn.policy.on_write(txn, table_name, key)
        self._maintain_indexes(txn, table_name, key, value)
        if page_steps:
            self._lock_new_key_pages(txn, table, table_name, key)
        txn.write_set[(table_name, key)] = value
        if kind == "write":  # a blind write keeps an earlier insert's kind
            txn.write_kinds.setdefault((table_name, key), kind)
        else:
            txn.write_kinds[(table_name, key)] = kind
        txn.n_writes += 1
        if self.history is not None:
            self.history.on_write(txn.id, table_name, key, kind=kind)

    def _lock_new_key_pages(
        self, txn: Transaction, table: Table, table_name: str, key: Hashable
    ) -> None:
        """PAGE granularity: register ``key`` in the tree now (with an
        empty, invisible chain) and X-lock every page the registration
        touched — a split updates parent pages too, reproducing the
        root-page contention of Section 6.1.5.  Under RECORD granularity
        nothing needs the key early: it enters the tree at commit."""
        for page_id in table.ensure_chain(key)[1]:
            result = self._acquire(
                txn, page_resource(table_name, page_id), LockMode.EXCLUSIVE
            )
            self._report_readers(txn, result.detection_conflicts)

    # ------------------------------------------------------------ indexes

    def _existing(
        self, txn: Transaction, table_name: str, key: Hashable
    ) -> tuple[Any, bool]:
        """What ``txn`` sees at ``key``, with no history record: the
        existence checks of writes and index maintenance."""
        return self._visible_value(
            txn, table_name, key, self.table(table_name).chain(key), record=False
        )

    def _maintain_indexes(
        self, txn: Transaction, table_name: str, key: Hashable, new_value: Any
    ) -> None:
        """Keep secondary indexes in step with a base-table mutation
        (``new_value`` is TOMBSTONE for a delete).

        Runs *before* the base write enters the transaction's write set,
        so the old row value is still observable.  Idempotent: an
        operation retried after a lock wait recomputes the same entries
        and skips work its first attempt already recorded.  Called with
        no latch held — the recursive delete/insert calls take their own.
        """
        definitions = self._indexes_by_table.get(table_name)
        if not definitions:
            return
        old_value, old_exists = self._existing(txn, table_name, key)
        for definition in definitions:
            old_entry = (
                definition.entry_for(key, old_value) if old_exists else None
            )
            new_entry = (
                None if new_value is TOMBSTONE
                else definition.entry_for(key, new_value)
            )
            if old_entry == new_entry:
                continue
            if old_entry is not None:
                if self._existing(txn, definition.name, old_entry)[1]:
                    self.delete(txn, definition.name, old_entry)
            if new_entry is not None:
                owner, entry_exists = self._existing(txn, definition.name, new_entry)
                if entry_exists:
                    if definition.unique and owner != key:
                        raise DuplicateKeyError(definition.name, new_entry)
                    continue  # retried op already inserted it
                self.insert(txn, definition.name, new_entry, key)

    def index_scan(
        self,
        txn: Transaction,
        index_name: str,
        lo: Hashable | None = None,
        hi: Hashable | None = None,
    ) -> list[tuple[Hashable, Hashable]]:
        """Phantom-safe range scan over an index: (index_key, primary_key)
        pairs for index keys in [lo, hi], in index order."""
        definition = self.index(index_name)
        if definition.unique:
            return self.scan(txn, index_name, lo, hi)
        lo_bound = (lo,) if lo is not None else None
        hi_bound = (hi, SUPREMUM) if hi is not None else None
        rows = self.scan(txn, index_name, lo_bound, hi_bound)
        return [(entry[0], pk) for entry, pk in rows]

    def index_lookup(
        self, txn: Transaction, index_name: str, index_key: Hashable
    ) -> list[Hashable]:
        """Primary keys of rows whose index key equals ``index_key``."""
        return [pk for _entry, pk in self.index_scan(txn, index_name,
                                                     index_key, index_key)]

    # -------------------------------------------------------- maintenance

    def poll_waiters(self) -> None:
        """Called by blocked threads: runs the periodic deadlock sweep."""
        if self.config.deadlock_mode is DeadlockMode.PERIODIC:
            self.sweep_deadlocks()

    def cancel_lock_request(self, request: LockRequest) -> bool:
        """Time out one waiting lock request (Section 4.4's InnoDB-style
        lock wait timeout): doom its owner, whose doom denies the request
        — so the doom is in place before the denial wakes the executor,
        whose retry aborts with it.  Returns False, dooming nobody, when
        a grant won the race (checked under the manager latch, which
        every grant holds)."""
        owner = request.owner
        with self.locks._latch:
            if request.resolved:
                return False
            self.doom(owner, LockTimeoutError("lock wait timeout", txn_id=owner.id))
            return request.resolved

    def sweep_deadlocks(self) -> list[Transaction]:
        """One periodic deadlock-detection pass; aborts one victim per
        cycle by dooming it (the victim aborts at its next step)."""
        victims = self.locks.find_deadlock_victims(youngest)
        for victim in victims:
            if self.trace is not None:
                self.trace.emit(EventType.VICTIM, victim.id, cause="deadlock")
            self.doom(victim, DeadlockError("deadlock victim", txn_id=victim.id))
        return victims

    def audit(self) -> dict[str, int]:
        """Residual engine state after quiesce: sweep, then count the
        lock-table residue and the suspended and prepared transactions
        (every count is 0 once every transaction has been retired)."""
        self.cleanup_suspended()
        return {
            **self.locks.residue(),
            "suspended": self.suspended_count(),
            "prepared": len(self._prepared),
        }

    def vacuum(self) -> int:
        """Garbage-collect versions below every active snapshot.

        Runs incrementally (:data:`repro.storage.table.VACUUM_CHUNK_SIZE`
        chains per table-latch hold) so concurrent scans are not stalled
        behind a full-table pass; each latch drop counts a
        ``vacuum_pause_events``.
        """
        with self._txn_latch:
            horizon = self._oldest_active_read_ts()
            tables = list(self._tables.values())
        if horizon == _INFINITY:
            horizon = self.clock.now()
        # Safe outside the txn latch: the horizon only needs to be a lower
        # bound — any snapshot assigned after it is anchored at a clock
        # value >= every timestamp the prune may reclaim.
        on_pause = lambda: self.stats.inc("vacuum_pause_events")  # noqa: E731
        return sum(
            table.vacuum(int(horizon), on_pause=on_pause, live=self._registry)
            for table in tables
        )

    def active_count(self) -> int:
        return len(self._active)

    def describe(self) -> dict:
        """Introspection snapshot: schema, version counts and the
        concurrency-control state the paper's Section 3.3 worries about
        (suspended transactions, retained locks); under
        ``REPRO_LATCH_DEBUG``, latch acquisitions by name (obs: process-wide)."""
        latches = latch_acquisitions([
            self._txn_latch, self._tracker_latch, self._commit_latch, OBS_LATCH,
            self.locks._latch, *(table.latch for table in self._tables.values()),
        ])
        with self._txn_latch:
            return {
                "tables": {
                    name: {
                        "keys": len(table),
                        "versions": sum(
                            len(chain) for _key, chain in table.scan_chains(None, None)
                        ),
                    }
                    for name, table in self._tables.items()
                },
                "indexes": {
                    name: {"table": d.table, "unique": d.unique}
                    for name, d in self._indexes.items()
                },
                "active_transactions": len(self._active),
                "suspended_transactions": self.suspended_count(),
                "lock_table_size": self.locks.table_size(),
                "clock": self.clock.now(),
                "stats": {
                    "commits": self.stats["commits"],
                    "aborts": dict(self.stats["aborts"]),
                },
                "latches": latches,
            }

    # =================================================== internal helpers

    def _check_op(self, txn: Transaction) -> None:
        """A doomed transaction aborts at its next operation (Section 3.2's
        'the conflicting transaction must abort instead')."""
        error = txn.doom_error
        if error is not None and txn.is_active:
            self._abort_internal(txn, error.reason)
            raise error
        if not txn.is_active:
            raise TransactionStateError(f"transaction {txn.id} is {txn.status.value}")

    def _check_write(self, txn: Transaction) -> None:
        """Reject mutations on declared read-only transactions — the
        declaration is what lets the safe-snapshot machinery trust that
        the transaction can only ever be the T_in of a dangerous
        structure."""
        if txn.read_only:
            raise TransactionStateError(f"transaction {txn.id} is read-only")

    def _assign_snapshot(self, txn: Transaction) -> None:
        # Under the commit latch: prepare_commit installs versions while
        # holding it, so a snapshot is anchored either before a commit's
        # timestamp was drawn (and never sees its versions) or after all
        # its versions are in place — never halfway.  The same latch keeps
        # the snapshot deque in read_ts order; the txn latch, taken first
        # in rank order, guards it against the horizon's pruning.
        with self._txn_latch, self._commit_latch:
            snapshot = txn.snapshot = Snapshot(self.clock.now())
            self._snapshots.append((snapshot, txn.id))
            if len(self._snapshots) > 2 * len(self._active) + 16:
                # Drop the dead entries piling up behind a long-lived head.
                active = self._active
                self._snapshots = deque(
                    (snap, tid) for snap, tid in self._snapshots
                    if getattr(active.get(tid), "snapshot", None) is snap
                )
        monitor = self.safe_snapshots
        if (
            monitor is not None
            and txn.read_only
            and isinstance(txn.policy, monitor.family)
        ):
            monitor.register(txn)
        if self.trace is not None:
            self.trace.emit(EventType.SNAPSHOT, txn.id, read_ts=txn.snapshot.read_ts)
        if self.history is not None:
            self.history.on_snapshot(txn.id, txn.snapshot.read_ts)

    def _ensure_snapshot(self, txn: Transaction) -> None:
        if txn.policy.uses_snapshots and txn.snapshot is None:
            self._assign_snapshot(txn)

    def _oldest_active_read_ts(self) -> float:
        """The cleanup horizon: the oldest read_ts of an active snapshot,
        else infinity.  Caller holds the txn latch.  Pops the dead head
        entries (a finished transaction's, a deferrable's abandoned one)
        of the read_ts-ordered deque: O(1) amortised.  Every exit from
        ``_active`` calls it, so SI/S2PL commits prune it too."""
        active = self._active
        while self._snapshots:
            snapshot, txn_id = self._snapshots[0]
            txn = active.get(txn_id)
            if txn is not None and txn.snapshot is snapshot:
                return snapshot.read_ts
            self._snapshots.popleft()
        return _INFINITY

    def _horizon_lag(self) -> int:
        """Gauge: clock minus cleanup horizon (0 with no active snapshot)."""
        with self._txn_latch:
            horizon = self._oldest_active_read_ts()
        return 0 if horizon == _INFINITY else self.clock.now() - horizon

    # --------------------------------------------------------- lock paths

    def _rec_resource(self, table_name: str, key: Hashable) -> Resource:
        if self.config.granularity is LockGranularity.PAGE:
            return page_resource(table_name, self.table(table_name).leaf_page_of(key))
        return record_resource(table_name, key)

    def _acquire(self, txn: Transaction, resource: Resource, mode: LockMode, chain=None) -> AcquireResult:
        """Acquire or raise LockWaitRequired.  A request already resolved
        when the manager returns it is acquired again once
        :meth:`_check_op` passes: denied means its owner was doomed (by
        its own enqueue's immediate deadlock resolution; the check aborts
        and raises), granted — by a concurrent release before the check —
        means an EXCLUSIVE record may have waited on a key range and
        still owe the record itself."""
        while True:
            result = self.locks.acquire(txn, resource, mode, None, chain)
            if result.status is AcquireStatus.GRANTED:
                return result
            if not result.request.resolved:
                raise LockWaitRequired(result.request)
            self._check_op(txn)

    def _acquire_write_locks(
        self, txn: Transaction, table: Table, table_name: str, key: Hashable
    ) -> VersionChain | None:
        """Write-side locking: the EXCLUSIVE record lock.  It meets every
        key range covering ``key`` (an S2PL scanner's SHARED range makes
        the write wait) and every SIREAD on the record: on its chain,
        where the grant publishes a writer whose policy tracks reads (a
        reader meeting any other writer could only drop the edge, Section
        3.8), or a lock.  Each holder that has not committed, or committed
        after this snapshot, marks a rw-dependency holder -> txn (Fig
        3.5/3.7), for updates, deletes, inserts and blind writes alike.
        Under PAGE granularity the key's leaf page, where readers' page
        SIREADs sit, is X-locked first.  Returns the record's chain as
        looked up before the grant (None under PAGE granularity or for a
        key without one)."""
        # Fail fast on first-committer-wins before queueing behind the
        # lock: if a newer committed version already exists, waiting is
        # futile (Berkeley DB aborts on the dirty-page request, Section
        # 4.2; InnoDB behaves likewise once the read view exists).
        if txn.snapshot is not None:
            self._first_committer_check(txn, table_name, key)
        resource = self._rec_resource(table_name, key)
        chain = None
        if resource.kind == "page":
            result = self._acquire(txn, resource, LockMode.EXCLUSIVE)
            self._report_readers(txn, result.detection_conflicts)
            resource = record_resource(table_name, key)
        else:
            chain = table.chain(key)
        result = self._acquire(
            txn, resource, LockMode.EXCLUSIVE,
            chain if txn.policy.tracks_reads else None,
        )
        if result.detection_conflicts or chain is not None and chain.readers:
            self._report_readers(txn, result.detection_conflicts, chain)
        return chain

    # ---------------------------------------------------------- conflicts

    def find_transaction(self, txn_id: int) -> Transaction | None:
        """The transaction with this id, if still findable (active or
        committed-suspended)."""
        return self._registry.get(txn_id)

    def dispatch_rw_edge(self, reader: Transaction, writer: Transaction) -> None:
        """Offer the rw-antidependency reader -> writer to the policies of
        both endpoints, higher ``edge_precedence`` first; the accepting
        policy records it (and applies its victim decision).  An edge
        neither endpoint can track — a mixed-level edge such as an SI
        query against SSI updaters, Section 3.8 — is counted and dropped.

        An endpoint that is no longer findable has retired: no later edge
        can close a cycle through it, and recording one would re-register
        it with the policy (an SGT node nothing removes again, pinning
        its successors in the suspended set).  Under threads a writer can
        meet a reader's lock just before the reader's cleanup and
        dispatch just after, so the check runs under the tracker latch,
        which cleanup holds.
        """
        if reader.id == writer.id:
            return
        with self._tracker_latch:
            if reader.is_aborted or writer.is_aborted:
                return
            if reader.doom_error is not None or writer.doom_error is not None:
                return
            if (
                self._registry.get(reader.id) is not reader
                or self._registry.get(writer.id) is not writer
            ):
                return
            first, second = reader.policy, writer.policy
            if second.edge_precedence > first.edge_precedence:
                first, second = second, first
            for policy in (first, second):
                if policy.handles_rw_edge(reader, writer):
                    policy.on_rw_edge(reader, writer)
                    return
            self.count_dropped_mixed_edge(reader=reader, writer=writer)

    def count_dropped_mixed_edge(
        self, reader: Transaction, writer: Transaction
    ) -> None:
        """Telemetry for rw edges no policy could record: without it,
        Section 3.8 mixed-workload runs silently lose their cross-level
        dependencies and cannot be audited."""
        if reader.id == writer.id:
            return
        with self._tracker_latch:
            self.stats["mixed_edges_dropped"] += 1
        if self.trace is not None:
            self.trace.emit(
                EventType.MIXED_EDGE, reader.id, peer=writer.id,
                reader_level=reader.isolation.value,
                writer_level=writer.isolation.value,
            )

    def _retire(self, txn: Transaction) -> None:
        """Tell every policy ``txn`` is leaving the system (cross-level
        edges mean one policy's bookkeeping can reference another level's
        transactions).  Caller holds the tracker latch."""
        for policy in self._retiring_policies:
            policy.on_transaction_retired(txn)

    def doom(self, victim: Transaction, error: TransactionAbortedError) -> None:
        """Mark a transaction for abort, then cancel its waits: deny its
        lock requests and fire a deferrable transaction's pending
        safe-snapshot verdict.  The woken executor retries into :meth:`_check_op`, the one place
        a cancelled wait becomes an abort.  A repeated doom keeps the
        first error but still cancels waits enqueued since, or a cycle
        through one of them could never be broken.

        Takes no engine latch: it is called from the immediate deadlock
        handler while the lock-manager latch is held, and ``doom_error``
        is a single reference store the victim's own thread observes at
        its next operation."""
        if not victim.is_active or victim.prepared:
            # Prepared-transaction-wins: a two-phase-commit participant
            # that voted yes cannot be unilaterally aborted — only its
            # coordinator decides.  (It also holds no waits to cancel:
            # prepared transactions run no further operations.)
            return
        if victim.doom_error is None:
            victim.doom_error = error
        self.locks.cancel_waits(victim, victim.doom_error)
        verdict = victim._safe_event
        if verdict is not None:
            verdict.set()

    def _on_deadlock(self, cycle: list[Transaction], request: LockRequest):
        """Immediate deadlock handler (InnoDB style): the requester whose
        wait closed the cycle is the victim."""
        victim = request.owner
        if self.trace is not None:
            self.trace.emit(
                EventType.VICTIM, victim.id, cause="deadlock",
                cycle=[txn.id for txn in cycle],
            )
        self.doom(victim, DeadlockError("deadlock victim", txn_id=victim.id))
        return victim

    # ------------------------------------------------ first committer wins

    def _first_committer_check(
        self, txn: Transaction, table_name: str, key: Hashable
    ) -> None:
        """First-committer-wins (Section 2.5): abort if a version newer
        than our snapshot exists.  S2PL transactions skip this — their
        SHARED locks give them current reads instead."""
        if not txn.policy.uses_snapshots or txn.snapshot is None:
            return
        table = self.table(table_name)
        conflicting = False
        if self._page_commit_ts is not None:
            # Page-level versioning (Berkeley DB, Section 4.2): any commit
            # to the key's page after our snapshot is an update conflict,
            # even on a different row.
            page_ts = self._page_commit_ts.get(
                (table_name, table.leaf_page_of(key)), 0
            )
            conflicting = page_ts > txn.snapshot.read_ts
        if not conflicting:
            chain = table.chain(key)
            conflicting = chain is not None and chain.has_newer(
                txn.snapshot.read_ts
            )
        if conflicting:
            error = UpdateConflictError(
                f"concurrent update of {table_name}[{key!r}]", txn_id=txn.id
            )
            self._abort_internal(txn, error.reason)
            raise error

    # -------------------------------------------------------------- aborts

    def _fold_tallies(self, txn: Transaction, commits: int) -> None:
        """Fold an ending transaction's tallies in; caller holds txn."""
        self.stats["reads"] += txn.n_reads
        self.stats["writes"] += txn.n_writes
        self.stats["scans"] += txn.n_scans
        self.stats["commits"] += commits

    def _abort_internal(self, txn: Transaction, reason: str) -> None:
        """Roll back.  Three phases: the abort decision and policy/tracker
        cleanup under the tracker latch; lock release with no latch held;
        registry removal under the txn latch."""
        with self._tracker_latch:
            if not txn.is_active:
                return
            txn.status = TransactionStatus.ABORTED
            self._prepared.discard(txn)
            txn.prepared = False
            txn.policy.on_abort(txn)
            if self.safe_snapshots is not None:
                self.safe_snapshots.on_abort(txn)
            self._retire(txn)
            bucket = reason if reason in self.stats["aborts"] else "aborted"
            self.stats["aborts"][bucket] += 1
        if self._page_commit_ts is not None:
            # Unregister the keys _lock_new_key_pages put in the tree,
            # each still X-locked by this inserter and still versionless.
            for lock in self.locks.locks_held_by(txn):
                resource = lock.resource
                if resource.kind == "rec" and lock.mask & LockMode.EXCLUSIVE.bit:
                    self.table(resource.table).discard_empty(resource.key)
        txn.write_set.clear()
        txn.write_kinds.clear()
        self.locks.release_all(txn, keep_siread=False)
        with self._txn_latch:
            self._active.pop(txn.id, None)
            self._registry.pop(txn.id, None)
            self._oldest_active_read_ts()  # prunes the snapshot deque
            self._fold_tallies(txn, commits=0)
        if self.history is not None:
            self.history.on_abort(txn.id)
        if self.trace is not None:
            self.trace.emit(EventType.ABORT, txn.id, reason=bucket)
