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

Threading model (PR-5): the engine is internally latched rather than
serialised by one kernel mutex.  Shared state is partitioned along the
latch hierarchy of :mod:`repro.engine.latches` —

* ``txn`` latch: transaction-id allocation, the registry/active maps,
  the snapshot deque behind the cleanup horizon, the retention lists,
  and schema changes;
* ``tracker`` latch: every CC-policy hook (conflict slots, the SGT
  certifier graph, rw-edge dispatch) and the commit/abort decision;
* ``commit`` latch: commit-timestamp allocation + version installation,
  and snapshot assignment — so a read view can never observe a commit's
  versions torn (every in-flight install carries a ``commit_ts`` newer
  than any snapshot handed out before it finished);
* per-table latches (B+-tree structure), the lock-manager latch, the obs
  latch and the WAL latch live further down the hierarchy.

Lock *waits* never happen while holding any latch: an operation that must
wait raises :class:`~repro.errors.LockWaitRequired` after fully unwinding
and is re-invoked once the request resolves; lock acquisition is
idempotent, and operations perform no side effects before their lock
acquisitions, so re-invocation is safe.  WAL appends/flushes and trace/history reporting
run outside every engine latch.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Hashable, Iterable, Optional

from repro.cc import build_policies
from repro.cc.policy import CCPolicy
from repro.engine.config import DeadlockMode, EngineConfig, LockGranularity
from repro.engine.indexes import IndexDef, KeyFunc
from repro.engine.groupcommit import CommitBatcher
from repro.engine.isolation import IsolationLevel
from repro.engine.latches import make_latch
from repro.engine.transaction import Transaction, TransactionStatus
from repro.engine.waits import Completion
from repro.errors import (
    ABORT_REASONS,
    CompletionWaitRequired,
    DeadlockError,
    DuplicateKeyError,
    KeyNotFoundError,
    LockTimeoutError,
    LockWaitRequired,
    TableError,
    TransactionAbortedError,
    TransactionStateError,
    UnsafeError,
    UpdateConflictError,
)
from repro.locking.deadlock import DeadlockDetector
from repro.locking.manager import (
    AcquireResult,
    AcquireStatus,
    LockManager,
    LockRequest,
    Resource,
    page_resource,
    range_resource,
    record_resource,
)
from repro.locking.modes import LockMode
from repro.mvcc.snapshot import Snapshot
from repro.mvcc.timestamps import LogicalClock
from repro.mvcc.version import TOMBSTONE, Version
from repro.obs.explain import AbortExplanation, explain_abort as _explain_abort
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import EventTrace, EventType
from repro.sgt.history import HistoryRecorder
from repro.storage.btree import SUPREMUM
from repro.storage.table import Table

#: PREPARE summary of a transaction with clean conflict slots (also the
#: whole summary for non-certifying levels: SI/S2PL export no rw state).
_EMPTY_SUMMARY = {"in": False, "out": False,
                  "in_partner": None, "out_partner": None}


class Database:
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
        #: append redo records and, with wal_flush_on_commit, flush before
        #: locks are released.
        self.wal = wal
        self.clock = LogicalClock()
        # The latch hierarchy replaces the old single kernel mutex (see
        # the module docstring and repro.engine.latches for ranks).
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
        self.deadlock_detector = DeadlockDetector()
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
        #: committed transactions retained for conflict detection, in
        #: commit order (Section 3.3); cleanup pops the head
        self._suspended: deque[Transaction] = deque()
        #: suspended transactions the horizon has passed but whose policy
        #: vetoed cleanup (SGT nodes with incoming edges), rechecked on
        #: every sweep so they never block the entries behind them
        self._set_aside: list[Transaction] = []
        #: committed writers kept *findable* (in the registry) but not
        #: suspended: they hold no SIREADs and cannot become pivots, yet
        #: Fig 3.4's newer-version branch must still resolve
        #: reader -> writer edges by creator id while a concurrent
        #: snapshot could ignore their versions.  Commit-ordered and
        #: swept with the same horizon as the suspended list.
        self._retired_writers: deque[Transaction] = deque()
        #: two-phase-commit participants: transactions that passed local
        #: certification via prepare_for_commit() and now await the
        #: coordinator's verdict.  Guarded by the tracker latch (the
        #: prepared flag is part of victim selection).
        self._prepared: set[Transaction] = set()
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
        #: commits/reads/writes/scans via ``CounterGroup.inc`` (obs latch).
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
        self._h_chain_length = self.metrics.histogram(
            "version_chain_length", edges=(1, 2, 4, 8, 16, 32, 64)
        )
        self._h_siread_retention = self.metrics.histogram(
            "siread_retention", edges=(1, 4, 16, 64, 256, 1024, 4096)
        )
        self._h_suspended = self.metrics.histogram(
            "suspended_transactions", edges=(1, 2, 4, 8, 16, 32, 64, 128)
        )
        #: event-trace layer — off (None) by default; every emission site
        #: below is guarded by a single ``is not None`` test.
        self.trace: EventTrace | None = None
        #: the commit entry: a lone committer leads itself through the
        #: serial body, overlapping committers share a leader-run group.
        self._batcher = CommitBatcher(self)

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
        wait: bool = True,
        global_id: int | None = None,
    ) -> Transaction:
        """Start a transaction at the given isolation level (Fig 3.1).

        ``read_only=True`` declares the transaction will never write
        (writes raise :class:`TransactionStateError`); under the SSI
        family the safe-snapshot monitor then watches for the moment its
        snapshot can no longer join a dangerous structure and releases
        its SIREAD locks early (Ports & Grittner §2.4).
        ``deferrable=True`` (implies read-only) waits here until a safe
        snapshot is available, then runs with zero SIREAD retention —
        PostgreSQL's SERIALIZABLE READ ONLY DEFERRABLE.

        ``wait=False`` makes a deferrable begin non-blocking: instead of
        parking the calling thread it raises
        :class:`~repro.errors.CompletionWaitRequired` carrying the
        already-created transaction and a subscribable completion; the
        executor suspends and later calls :meth:`resume_deferrable`.
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
            if wait:
                self._wait_safe_snapshot(txn)
            else:
                completion = self._deferrable_attempt(txn)
                if completion is not None:
                    if self.history is not None:
                        self.history.on_begin(txn.id)
                    raise CompletionWaitRequired(txn, completion)
        elif policy.uses_snapshots and not self.config.deferred_snapshot:
            self._assign_snapshot(txn)
        if self.history is not None:
            self.history.on_begin(txn.id)
        return txn

    def _deferrable_attempt(self, txn: Transaction) -> Completion | None:
        """Take one candidate snapshot for a deferrable begin.

        Returns None when the snapshot is already safe (the begin is
        complete) or a :class:`Completion` the safe-snapshot monitor will
        fire with its verdict — safe, or unsafe (permanent for this
        snapshot, so the next attempt needs a fresh one)."""
        completion = Completion(txn, self.locks)
        txn._safe_event = completion
        self._assign_snapshot(txn)
        if txn.snapshot_safe:
            txn._safe_event = None
            return None
        if self.safe_snapshots is None or txn.snapshot_safe is None:
            # No monitor watches this level: nothing retains SIREADs
            # here, so every snapshot is trivially safe.
            txn.snapshot_safe = True
            txn._safe_event = None
            return None
        return completion

    def resume_deferrable(self, txn: Transaction) -> Transaction:
        """Drive a non-blocking deferrable begin after its completion
        fired.  A safe verdict finishes the begin; an unsafe verdict is
        permanent for that snapshot, so a fresh one is taken — possibly
        raising :class:`CompletionWaitRequired` again.  A doom (which
        fires the completion) aborts the begin instead."""
        self._check_op(txn)
        if txn.snapshot_safe:
            txn._safe_event = None
            return txn
        # Unsafe verdict: a concurrent writer committed a pivot edge
        # this snapshot can still complete.  Take a fresh snapshot.
        txn.snapshot = None
        txn.snapshot_safe = None
        completion = self._deferrable_attempt(txn)
        if completion is not None:
            raise CompletionWaitRequired(txn, completion)
        return txn

    def _wait_safe_snapshot(self, txn: Transaction) -> None:
        """Thread-blocking adapter over the deferrable completion path:
        park on each candidate's completion until a safe verdict."""
        completion = self._deferrable_attempt(txn)
        while completion is not None:
            completion.wait()
            try:
                self.resume_deferrable(txn)
                return
            except CompletionWaitRequired as retry:
                completion = retry.completion

    def commit(self, txn: Transaction, *, wait: bool = True) -> None:
        """Commit: unsafe check, version install, lock release, suspension
        and cleanup (Fig 3.2 / Fig 3.10).

        Every commit enters the
        :class:`~repro.engine.groupcommit.CommitBatcher`.  With nobody
        else committing the caller becomes the leader and runs the
        serial body (:meth:`prepare_commit` → :meth:`finalize_commit`)
        on its own transaction, then drains whoever queued behind it
        meanwhile as leader-run groups.  A caller that arrives while a
        leader is active queues a ticket and waits for that leader's
        verdict — ``wait=False`` turns the wait into
        :class:`~repro.errors.CompletionWaitRequired` so a session can
        suspend on the ticket's completion and re-invoke this method,
        which consumes the resolved ticket.  Re-invocation with a
        pending ticket never re-enters.
        """
        if not txn.policy.certifies and not txn.write_set:
            # Nothing a group amortizes: a non-certifying read-only
            # commit takes no tracker latch and writes no WAL.
            self.prepare_commit(txn)
            self.finalize_commit(txn)
            return
        ticket = txn._commit_ticket
        if ticket is None:
            self._check_op(txn)
            batcher = self._batcher
            ticket = batcher.enter(txn)
            if ticket is None:
                try:
                    self.prepare_commit(txn)
                    self.finalize_commit(txn)
                finally:
                    batcher.lead()
                return
            txn._commit_ticket = ticket
        if not ticket.done.fired:
            if not wait:
                raise CompletionWaitRequired(txn, ticket.done)
            ticket.done.wait()
        txn._commit_ticket = None
        if ticket.error is not None:
            raise ticket.error

    def prepare_commit(self, txn: Transaction) -> None:
        """The atomic logical commit: checks, commit timestamp, version
        installation.  After this the transaction is durably committed but
        still holds its locks; :meth:`finalize_commit` releases them.

        Split from finalize so the simulator can charge the log-flush I/O
        while locks are still held — the ordering the paper enforces in
        InnoDB (Section 4.4, "locks are not released until after the log
        has been flushed").
        """
        self._check_op(txn)
        if txn.policy.certifies:
            # The commit decision — certification through status flip — is
            # one tracker-latch critical section, so no rw edge can land
            # between a clean unsafe check and the transaction turning
            # COMMITTED without being serialised before the check.
            with self._tracker_latch:
                error = self._certify(txn)
                if error is None:
                    self._install_commit(txn)
        else:
            # No certification hooks (plain SI, S2PL): nothing for the
            # tracker latch to order against.
            error = None
            self._install_commit(txn)
        if error is not None:
            self._abort_internal(txn, error.reason)
            raise error
        self._publish_commits((txn,))

    # --------------------------------------------- two-phase commit seam

    def prepare_for_commit(self, txn: Transaction) -> dict:
        """First phase of a coordinator-driven two-phase commit.

        Runs local certification (the same unsafe check a plain commit
        would run) but installs nothing: the transaction stays ACTIVE,
        keeps its write locks (first-committer-wins still fires against
        it) and is marked *prepared* — from here on it cannot be chosen
        as an SSI or deadlock victim (prepared-transaction-wins; see
        :meth:`doom` and the trackers' ``_choose_victim``), and any
        local transaction whose commit would complete a dangerous
        structure around it aborts instead
        (:meth:`_endangering_prepared`).

        Returns the shard's rw-antidependency summary for the PREPARE
        response::

            {"in": bool, "out": bool,
             "in_partner": gtid | "unknown" | None,
             "out_partner": gtid | "unknown" | None}

        ``in``/``out`` are the transaction's conflict-slot states at
        prepare time (SIREAD-vs-write conflicts discovered here are
        already folded in — marking happens at operation time, under the
        same tracker latch this check takes).  Partners are rendered as
        coordinator global ids when known; ``"unknown"`` covers boolean
        flags, self-references (order lost) and partners without a
        global id.  A failed certification aborts the transaction and
        raises, exactly like :meth:`prepare_commit`.
        """
        self._check_op(txn)
        certifies = txn.policy.certifies
        summary = _EMPTY_SUMMARY.copy()
        with self._tracker_latch:
            error = self._certify(txn) if certifies else None
            if error is None:
                txn.prepared = True
                self._prepared.add(txn)
                if certifies:
                    summary = self._conflict_summary(txn)
        if error is not None:
            self._abort_internal(txn, error.reason)
            raise error
        if self.trace is not None:
            self.trace.emit(EventType.PREPARE, txn.id, **summary)
        return summary

    def commit_prepared(
        self, txn: Transaction, *, import_in: bool = False,
        import_out: bool = False,
    ) -> None:
        """Second phase: commit a prepared transaction unconditionally.

        The coordinator's verdict is final — atomicity across shards
        forbids re-certification here, so unlike :meth:`prepare_commit`
        this never runs ``before_commit``.  Soundness is preserved by
        three rules that bracketed the window since prepare: new edges
        abort the unprepared counterparty (prepared-transaction-wins),
        a local committer that would endanger a prepared pivot aborts
        itself (:meth:`_endangering_prepared`), and the merged
        cross-shard flags are imported here so post-commit edges against
        this transaction see the global dangerous structure (Ports &
        Grittner: the flags travel with the commit record).

        ``import_in``/``import_out`` fold the coordinator's *merged*
        conflict flags into slots this shard saw empty; the conservative
        self-reference/boolean encoding makes later local checks treat
        the partner as uncommitted-order-unknown.  Callers still run
        :meth:`finalize_commit` afterwards.
        """
        if not txn.is_active:
            raise TransactionStateError(f"transaction {txn.id} is {txn.status.value}")
        if not txn.prepared:
            raise TransactionStateError(
                f"commit_prepared of transaction {txn.id} before prepare"
            )
        certifies = txn.policy.certifies
        with self._tracker_latch:
            self._prepared.discard(txn)
            txn.prepared = False
            if certifies:
                # Merged flags land in slots this shard saw empty, as the
                # most conservative encoding the slot type admits: True
                # for the boolean tracker (empty value False), a
                # self-reference (order lost, bounds pinned open) for the
                # reference tracker (empty value None).
                if import_in and not txn.in_conflict:
                    txn.in_conflict = True if txn.in_conflict is False else txn
                if import_out and not txn.out_conflict:
                    txn.out_conflict = True if txn.out_conflict is False else txn
                self._install_commit(txn)
        if not certifies:  # nothing for the tracker latch to order against
            self._install_commit(txn)
        self._publish_commits((txn,))

    # ---------------------------------------------------- commit pipeline

    def _certify(self, txn: Transaction) -> TransactionAbortedError | None:
        """Step 1, tracker-latched: a doom that landed since the caller's
        last check (rw-edge victims are chosen under this latch, so such
        a doom cannot slip past the status flip), the commit-time unsafe
        check, and the rule that committing must not complete a
        dangerous structure around a prepared pivot (the pivot can no
        longer abort locally, so this transaction yields).  Returns the
        veto, or None."""
        error = txn.doom_error or txn.policy.before_commit(txn)
        if error is None and self._prepared:
            error = self._endangering_prepared(txn)
        return error

    def _install_commit(self, txn: Transaction) -> None:
        """Step 2, tracker-latched for certifying policies: commit
        timestamp, status flip, version install, then the policy's
        post-commit bookkeeping."""
        self._logical_commit(txn)
        if txn.policy.certifies:
            if self.safe_snapshots is not None:
                # Before after_commit: the enhanced tracker munges
                # committed conflict references to self-references
                # there, and the monitor needs the real T_out.
                self.safe_snapshots.on_commit(txn)
            txn.policy.after_commit(txn)

    def _publish_commits(self, txns) -> None:
        """Step 3, no latch held: redo records for ``txns`` (committed,
        in commit order), one flush covering all of them, then the
        commit counter, history and trace.  The members' locks are still
        held — finalize_commit releases them — which is the paper's
        flush-before-release ordering (Section 4.4); and recovery never
        sees a torn group: the one flush happened or it did not."""
        wal = self.wal
        if wal is not None:
            logged = False
            for txn in txns:
                if not txn.write_set:
                    continue
                for (table_name, key), value in txn.write_set.items():
                    wal.log_write(
                        txn.id, table_name, key,
                        None if value is TOMBSTONE else value,
                        tombstone=value is TOMBSTONE,
                        kind=txn.write_kinds.get((table_name, key), "write"),
                    )
                wal.log_commit(txn.id, txn.commit_ts)
                logged = True
            if logged and self.config.wal_flush_on_commit:
                wal.flush()
        self.stats.inc("commits", len(txns))
        for txn in txns:
            if self.history is not None:
                self.history.on_commit(txn.id, txn.commit_ts)
            if self.trace is not None:
                self.trace.emit(EventType.COMMIT, txn.id, commit_ts=txn.commit_ts)

    def _endangering_prepared(
        self, txn: Transaction
    ) -> TransactionAbortedError | None:
        """Tracker-latched: would committing ``txn`` now complete a
        dangerous structure around a prepared pivot?

        A prepared pivot P with both slots occupied is unsafe once its
        outgoing side commits no later than its incoming side (the
        enhanced tracker's bound test).  P itself can no longer abort,
        so if ``txn`` *is* (or may be) P's outgoing side and P's
        incoming bound is still open (+inf: uncommitted or order lost),
        ``txn`` must yield.  Conservative for boolean trackers (any
        ``True`` flag counts)."""
        for pivot in self._prepared:
            if pivot is txn or not pivot.is_active:
                continue
            out_ref = pivot.out_conflict
            in_ref = pivot.in_conflict
            if not out_ref or not in_ref:
                continue
            if not (out_ref is txn or out_ref is pivot or out_ref is True):
                continue
            if (
                in_ref is not True
                and in_ref is not pivot
                and getattr(in_ref, "is_committed", False)
            ):
                # in-bound = partner's commit_ts, strictly before txn's
                # prospective commit_ts -> out_bound > in_bound -> safe.
                continue
            return UnsafeError(
                f"commit of {txn.id} would endanger prepared pivot {pivot.id}",
                txn_id=txn.id,
            )
        return None

    @staticmethod
    def _conflict_summary(txn: Transaction) -> dict:
        """Render the conflict slots JSON-safe for a PREPARE response."""
        def render(ref):
            if ref is None or ref is False:
                return False, None
            if ref is True or ref is txn:
                return True, "unknown"
            if getattr(ref, "is_aborted", False):
                # The edge died with its victim (Fig 3.10's restore rule);
                # an aborted partner must not vote a flag at PREPARE.
                return False, None
            gid = getattr(ref, "global_id", None)
            return True, gid if gid is not None else "unknown"

        has_in, in_partner = render(txn.in_conflict)
        has_out, out_partner = render(txn.out_conflict)
        return {"in": has_in, "out": has_out,
                "in_partner": in_partner, "out_partner": out_partner}

    def _logical_commit(self, txn: Transaction) -> None:
        """Allocate the commit timestamp, flip the status, install the
        write set.  A read-only transaction installs nothing, so it skips
        the commit latch entirely — the latch exists to keep snapshot
        assignment atomic against version installation, and there is
        nothing to install (the clock is internally synchronised)."""
        if not txn.write_set:
            txn.commit_ts = self.clock.next()
            txn.status = TransactionStatus.COMMITTED
            return
        page_commit_ts = self._page_commit_ts
        with self._commit_latch:
            txn.commit_ts = self.clock.next()
            txn.status = TransactionStatus.COMMITTED
            for (table_name, key), value in txn.write_set.items():
                table = self.table(table_name)
                with table.latch:
                    chain = table.ensure_chain(key)[0]
                    chain_length = chain.install(
                        Version(value=value, commit_ts=txn.commit_ts,
                                creator_id=txn.id)
                    )
                    if page_commit_ts is not None:
                        page_key = (table_name, table.leaf_page_of(key))
                        page_commit_ts[page_key] = txn.commit_ts
                self._h_chain_length.observe(chain_length)

    def finalize_commit(self, txn: Transaction) -> None:
        """Append the record to a commit-ordered retention list if
        conflict detection still needs it, run the cleanup sweep (which
        retires it once no active snapshot overlaps it) in the same
        latched section and with the same horizon, then release locks."""
        if not txn.is_committed:
            raise TransactionStateError("finalize_commit before prepare_commit")
        lm = self.locks
        if not txn.policy.retains:
            # SI/S2PL: nothing survives the commit — release, unregister,
            # then retire (an SGT edge may have drawn it in; now none can).
            lm.release_all(txn)
            with self._txn_latch:
                self._active.pop(txn.id, None)
                self._registry.pop(txn.id, None)
                self._oldest_active_read_ts()  # prunes the snapshot deque
            if self._retiring_policies:
                with self._tracker_latch:
                    self._retire(txn)
            if self._cleanup_due():
                self.cleanup_suspended()
            return
        with self._txn_latch, self._tracker_latch:
            keep_siread = txn.policy.retain_read_locks(txn)
            retain = txn.policy.retain_record(txn, keep_siread)
            self._active.pop(txn.id, None)
            horizon = self._oldest_active_read_ts()
            if retain:
                txn.suspended = True
                self._suspended.append(txn)
                suspended_depth = self.suspended_count()
                if suspended_depth > self.stats["suspended_peak"]:
                    self.stats["suspended_peak"] = suspended_depth
                self._h_suspended.observe(suspended_depth)
                if self.trace is not None:
                    self.trace.emit(
                        EventType.SUSPEND, txn.id, keep_siread=keep_siread
                    )
            elif (
                txn.policy.needs_findable_record(txn)
                and txn.commit_ts > horizon
            ):
                # Not suspended — no SIREADs, no out-conflict — but a
                # concurrent snapshot predates this commit and may later
                # ignore one of its versions; the record must stay
                # findable or that rw edge is silently lost.
                self._retired_writers.append(txn)
            else:
                self._registry.pop(txn.id, None)
                self._retire(txn)
            if self._cleanup_due():
                self._sweep(horizon)
        lm.release_all(txn, keep_siread=keep_siread)

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
        value, found = self._read_internal(txn, table_name, key, locking=False)
        if not found:
            raise KeyNotFoundError(table_name, key)
        return value

    def get(
        self, txn: Transaction, table_name: str, key: Hashable, default: Any = None
    ) -> Any:
        self._check_op(txn)
        value, found = self._read_internal(txn, table_name, key, locking=False)
        return value if found else default

    def read_for_update(self, txn: Transaction, table_name: str, key: Hashable) -> Any:
        """SELECT ... FOR UPDATE: acquires the EXCLUSIVE lock before the
        snapshot is chosen (Section 4.5), providing Oracle-style promotion
        semantics (Section 2.6.2)."""
        self._check_op(txn)
        self._check_write(txn)
        self._acquire_write_locks(txn, table_name, key)
        value, found = self._read_internal(
            txn, table_name, key, locking=True
        )
        if not found:
            raise KeyNotFoundError(table_name, key)
        return value

    def scan(
        self,
        txn: Transaction,
        table_name: str,
        lo: Hashable | None = None,
        hi: Hashable | None = None,
        reverse: bool = False,
        limit: int | None = None,
    ) -> list[tuple[Hashable, Any]]:
        """Predicate read over [lo, hi] with phantom protection: one key
        range on [lo, hi] in the transaction's read mode — Fig 3.6's
        SIREAD for SSI/SGT, a blocking SHARED range for S2PL.

        ``reverse`` returns rows in descending key order; ``limit`` caps
        the result *after* ordering.  **The whole range is still
        materialised and locked even with ``limit=N``**: the predicate
        the transaction logically evaluated covers [lo, hi], so phantom
        protection must too — a concurrent insert anywhere in the range
        could change which rows are "the first N".  Callers that only
        need a prefix and can accept prefix-only locking (sound because
        the result then only depends on keys up to the cut point) should
        use :meth:`scan_prefix`.

        Execution: the scan places its key range first (the walk of
        :meth:`_prefix_walk`, with no cut) at either lock granularity;
        the key set is then materialised in leaf-page-sized chunks —
        dropping the table latch between chunks — and visibility is
        resolved batch-at-a-time against the one snapshot, with one
        CC-policy call per scan.
        """
        self._check_op(txn)
        table = self.table(table_name)
        self._ensure_snapshot(txn)
        self.stats.inc("scans")
        chains, _cut = self._prefix_walk(txn, table, table_name, lo, hi, None)
        results, seen = self._resolve_scan_rows(txn, table_name, chains)
        # Own uncommitted writes overlay the scan result.
        results = self._overlay_write_set(txn, table_name, lo, hi, results)
        self._record_scan(txn, table_name, (lo, hi), seen)
        if reverse:
            results = list(reversed(results))
        if limit is not None:
            results = results[:limit]
        return results

    def _record_scan(
        self, txn: Transaction, table_name: str, span: tuple, seen: list
    ) -> None:
        """History record of a predicate read.  A reader without a
        snapshot (S2PL) read the latest committed state under its locks,
        so its read point is the commit clock's high-water mark once the
        scan is done."""
        if self.history is not None:
            read_ts = txn.read_ts
            if read_ts is None:
                read_ts = self.clock.now()
            self.history.on_scan(txn.id, table_name, span, tuple(seen), read_ts)

    def _meet_writers(
        self,
        txn: Transaction,
        table_name: str,
        lo: Hashable | None,
        hi: Hashable | None,
        writers: list,
        read_mode: LockMode,
        held: bool,
    ) -> bool:
        """Settle the writers a freshly placed range [lo, hi] found in
        flight inside it.  A SIREAD reader dispatches their rw edges.  A
        SHARED reader waits for each through a blocking SHARED record
        lock, having first withdrawn the range unless it held it before
        this scan: a reader that held its range while waiting would block
        those writers' next keys and deadlock against them.  Returns
        False when the reader waited — it then places the range and
        reads again."""
        if read_mode is LockMode.SIREAD:
            for lock in writers:
                self.dispatch_rw_edge(reader=txn, writer=lock.owner)
            return True
        if not writers:
            return True
        if not held:
            self.locks.release_range(txn, table_name, lo, hi)
        for lock in writers:
            self._acquire(txn, lock.resource, LockMode.SHARED)
        return False

    def _resolve_scan_rows(
        self, txn: Transaction, table_name: str, chains: list
    ) -> tuple[list[tuple[Hashable, Any]], list[Hashable]]:
        """Batch visibility resolution for a materialised scan.

        One pass with the per-row branches of :meth:`_visible_value`
        hoisted out of the loop: the policy flags, write-set presence,
        history handle and snapshot read_ts are read once, and the
        snapshot's ts-array tail check is inlined (the one-slot memo is
        useless on a scan — every chain is distinct).  Semantics are
        those of a point read per row: own uncommitted writes
        short-circuit before any detection or history (a tombstone
        skips the row entirely), every other row records its read and
        feeds conflict detection — the collected (key, chain, version)
        triples go to the policy's ``on_read_batch`` in one
        tracker-latch section.  A ``reads_newer_only`` policy (SSI) is
        handed only the rows whose tail check found a version newer than
        the snapshot; a version installed after that check belongs to a
        writer whose EXCLUSIVE grant met the scan's locks, and the edge
        was dispatched there."""
        results: list[tuple[Hashable, Any]] = []
        seen: list[Hashable] = []
        policy = txn.policy
        uses_snapshots = policy.uses_snapshots
        write_set = txn.write_set
        history = self.history
        txn_id = txn.id
        handed: list | None = [] if policy.tracks_reads else None
        every_row = handed is not None and not (
            uses_snapshots and policy.reads_newer_only
        )
        if uses_snapshots:
            read_ts = txn.snapshot.read_ts
        for key, chain in chains:
            if write_set:
                own = write_set.get((table_name, key), _MISSING)
                if own is not _MISSING:
                    if own is not TOMBSTONE:
                        results.append((key, own))
                        seen.append(key)
                    continue
            if uses_snapshots:
                # Inlined tail fast path of Snapshot.visible (latch-free
                # read of the chain's (versions, ts) tuple).
                versions, stamps = chain._data
                length = len(stamps)
                if length and stamps[length - 1] <= read_ts:
                    version = versions[length - 1]
                    if every_row:
                        handed.append((key, chain, version))
                else:
                    # The tail is newer than the snapshot (or the chain
                    # is still empty).
                    version = chain.visible(read_ts)
                    if handed is not None and (length or every_row):
                        handed.append((key, chain, version))
            else:
                version = chain.latest()
                if handed is not None:
                    handed.append((key, chain, version))
            if history is not None:
                history.on_read(
                    txn_id, table_name, key,
                    version.commit_ts if version else None,
                )
            if version is not None and not version.is_tombstone:
                results.append((key, version.value))
                seen.append(key)
        if chains:
            self.stats.inc("reads", len(chains))
        if handed:
            with self._tracker_latch:
                policy.on_read_batch(txn, table_name, handed)
        return results, seen

    def scan_prefix(
        self,
        txn: Transaction,
        table_name: str,
        lo: Hashable | None = None,
        hi: Hashable | None = None,
        limit: int | None = None,
    ) -> list[tuple[Hashable, Any]]:
        """Early-terminating prefix scan: the first ``limit`` visible
        rows of [lo, hi] in ascending key order, protecting only the
        visited prefix instead of the whole range.

        Sound because the result of this weaker predicate depends only
        on keys up to the cut point (the key where the limit was
        reached): a concurrent insert, update or delete at or below the
        cut — the only kind that can change "the first N visible rows" —
        meets the scan's range, which ends at the cut (Fig 3.6/3.7).
        Writes past the cut cannot change the answer and need no
        protection; when the range is exhausted before the limit the
        scan degenerates to a full range scan.

        Falls back to a full :meth:`scan` when ``limit`` is None or when
        the transaction has own pending writes inside [lo, hi] (own-write
        overlay can shift the cut in both directions).
        """
        if limit is None:
            return self.scan(txn, table_name, lo, hi)
        self._check_op(txn)
        table = self.table(table_name)
        self._ensure_snapshot(txn)
        if any(
            tname == table_name
            and (lo is None or not key < lo)
            and (hi is None or not hi < key)
            for tname, key in txn.write_set
        ):
            return self.scan(txn, table_name, lo, hi, limit=limit)
        if limit <= 0:
            return []
        self.stats.inc("scans")
        visited, cut_key = self._prefix_walk(txn, table, table_name, lo, hi, limit)
        results, seen = self._resolve_scan_rows(txn, table_name, visited)
        self._record_scan(
            txn, table_name, (lo, hi if cut_key is _MISSING else cut_key), seen
        )
        return results

    def _prefix_walk(
        self,
        txn: Transaction,
        table,
        table_name: str,
        lo: Hashable | None,
        hi: Hashable | None,
        limit: int | None,
    ) -> tuple[list, Any]:
        """Walk to the cut: ``(visited rows, cut key or _MISSING)`` — the
        one walk of every scan; with no ``limit`` it visits all of
        [lo, hi] and never cuts.

        A locking reader places the range [lo, hi] before the walk, so
        every writer is met from one side.  Once the cut is known, only
        the writers in flight at placement at or below it are settled
        (:meth:`_meet_writers` — an S2PL reader that waited walks again),
        and the range narrows to [lo, cut].  A writer granted during the
        walk met [lo, hi]: conservative past the cut, never missing below
        it."""
        read_mode = txn.policy.read_lock_mode(txn)
        snapshot = txn.snapshot if txn.policy.uses_snapshots else None
        lm = self.locks
        while True:
            if read_mode is not None:
                # A range held before this scan keeps its full width.
                held = lm.holds(txn, range_resource(table_name, lo, hi))
                writers = lm.acquire_range(txn, table_name, lo, hi, read_mode)
            cut_key = _MISSING
            if limit is None:
                # The table latch is held per chunk, not across [lo, hi].
                visited = [
                    pair for chunk in table.scan_chunks(lo, hi) for pair in chunk
                ]
            else:
                visited = []
                visible = 0
                for chunk in table.scan_chunks(lo, hi):
                    for key, chain in chunk:
                        visited.append((key, chain))
                        if _live(snapshot, chain):
                            visible += 1
                            if visible >= limit:
                                cut_key = key
                                break
                    if cut_key is not _MISSING:
                        break
            if read_mode is None:
                return visited, cut_key
            if cut_key is not _MISSING:
                writers = [
                    lock for lock in writers if not cut_key < lock.resource.key
                ]
            if self._meet_writers(txn, table_name, lo, hi, writers, read_mode, held):
                break
        if cut_key is not _MISSING and not held:
            lm.narrow_range(txn, table_name, lo, hi, cut_key)
        if read_mode is LockMode.SIREAD:
            lm.escalate(self._siread_budget)
        return visited, cut_key

    # ------------------------------------------------------------- writing

    def write(self, txn: Transaction, table_name: str, key: Hashable, value: Any) -> None:
        """Fig 3.5's modified write: blind upsert of a single item.

        A brand-new key lies inside every key range covering it, so a
        scanner's range meets the write exactly as it meets an insert;
        under PAGE granularity a new key takes :meth:`insert`'s page
        steps."""
        self._check_op(txn)
        self._check_write(txn)
        table = self.table(table_name)
        new_page_key = (
            self.config.granularity is LockGranularity.PAGE
            and table.chain(key) is None
        )
        self._acquire_write_locks(txn, table_name, key)
        self._ensure_snapshot(txn)
        self._first_committer_check(txn, table_name, key)
        if txn.policy.tracks_writes:
            with self._tracker_latch:
                txn.policy.on_write(txn, table_name, key)
        self._maintain_indexes(txn, table_name, key, value)
        if new_page_key:
            self._lock_new_key_pages(txn, table, table_name, key)
        txn.write_set[(table_name, key)] = value
        txn.write_kinds.setdefault((table_name, key), "write")
        self.stats.inc("writes")
        if self.history is not None:
            self.history.on_write(txn.id, table_name, key, kind="write")

    def insert(self, txn: Transaction, table_name: str, key: Hashable, value: Any) -> None:
        """Fig 3.7's insert: the EXCLUSIVE record lock on the new key
        meets every concurrent scanner whose key range covers it."""
        self._check_op(txn)
        self._check_write(txn)
        table = self.table(table_name)
        self._acquire_write_locks(txn, table_name, key)
        self._ensure_snapshot(txn)
        self._first_committer_check(txn, table_name, key)
        value_now, exists = self._visible_value(
            txn, table_name, key, table.chain(key), record=False
        )
        del value_now
        if exists:
            raise DuplicateKeyError(table_name, key)
        if txn.policy.tracks_writes:
            with self._tracker_latch:
                txn.policy.on_write(txn, table_name, key)
        self._maintain_indexes(txn, table_name, key, value)
        if self.config.granularity is LockGranularity.PAGE:
            self._lock_new_key_pages(txn, table, table_name, key)
        txn.write_set[(table_name, key)] = value
        txn.write_kinds[(table_name, key)] = "insert"
        self.stats.inc("writes")
        if self.history is not None:
            self.history.on_write(txn.id, table_name, key, kind="insert")

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

    def delete(self, txn: Transaction, table_name: str, key: Hashable) -> None:
        """Fig 3.7's delete: installs a tombstone version at commit."""
        self._check_op(txn)
        self._check_write(txn)
        table = self.table(table_name)
        self._acquire_write_locks(txn, table_name, key)
        self._ensure_snapshot(txn)
        self._first_committer_check(txn, table_name, key)
        _value, exists = self._visible_value(
            txn, table_name, key, table.chain(key), record=False
        )
        if not exists:
            raise KeyNotFoundError(table_name, key)
        if txn.policy.tracks_writes:
            with self._tracker_latch:
                txn.policy.on_write(txn, table_name, key)
        self._maintain_indexes(txn, table_name, key, None, deleting=True)
        txn.write_set[(table_name, key)] = TOMBSTONE
        txn.write_kinds[(table_name, key)] = "delete"
        self.stats.inc("writes")
        if self.history is not None:
            self.history.on_write(txn.id, table_name, key, kind="delete")

    # ------------------------------------------------------------ indexes

    def _maintain_indexes(
        self,
        txn: Transaction,
        table_name: str,
        key: Hashable,
        new_value: Any,
        deleting: bool = False,
    ) -> None:
        """Keep secondary indexes in step with a base-table mutation.

        Runs *before* the base write enters the transaction's write set,
        so the old row value is still observable.  Idempotent: an
        operation retried after a lock wait recomputes the same entries
        and skips work its first attempt already recorded.  Called with
        no latch held — the recursive delete/insert calls take their own.
        """
        definitions = self._indexes_by_table.get(table_name)
        if not definitions:
            return
        old_value, old_exists = self._visible_value(
            txn, table_name, key, self.table(table_name).chain(key), record=False
        )
        for definition in definitions:
            old_entry = (
                definition.entry_for(key, old_value) if old_exists else None
            )
            new_entry = (
                definition.entry_for(key, new_value) if not deleting else None
            )
            if old_entry == new_entry:
                continue
            if old_entry is not None:
                _v, entry_exists = self._visible_value(
                    txn, definition.name, old_entry,
                    self.table(definition.name).chain(old_entry), record=False,
                )
                if entry_exists:
                    self.delete(txn, definition.name, old_entry)
            if new_entry is not None:
                owner, entry_exists = self._visible_value(
                    txn, definition.name, new_entry,
                    self.table(definition.name).chain(new_entry), record=False,
                )
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
            rows = self.scan(txn, index_name, lo, hi)
            return [(entry, pk) for entry, pk in rows]
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
        victims = self.locks.find_deadlock_victims(
            self.deadlock_detector.victim_policy
        )
        for victim in victims:
            if self.trace is not None:
                self.trace.emit(EventType.VICTIM, victim.id, cause="deadlock")
            self.doom(victim, DeadlockError("deadlock victim", txn_id=victim.id))
        return victims

    def cleanup_suspended(self) -> int:
        """Retire the retained committed transactions no active snapshot
        overlaps (Sections 4.3.1/4.6.1); returns how many suspended ones.
        Like PostgreSQL's finished list against ``SxactGlobalXmin``, both
        commit-ordered lists are popped from the head while ``commit_ts
        <= horizon``: an entry a concurrent finalize appended out of order
        only waits for a later sweep.  A head whose policy vetoes cleanup
        (an SGT node with incoming edges) is set aside and rechecked on
        every sweep, never blocking those behind."""
        with self._txn_latch, self._tracker_latch:
            return self._sweep(self._oldest_active_read_ts())

    def _sweep(self, horizon: float) -> int:
        """:meth:`cleanup_suspended`'s body against ``horizon``; the
        caller holds the txn and tracker latches (a committing
        :meth:`finalize_commit` runs it in its own latched section)."""
        due, self._set_aside = self._set_aside, []
        while self._suspended and self._suspended[0].commit_ts <= horizon:
            due.append(self._suspended.popleft())
        cleaned = 0
        for txn in due:
            if not txn.policy.may_cleanup(txn):
                self._set_aside.append(txn)
                continue
            self.locks.drop_siread_locks(txn)
            self._retire(txn)
            self._registry.pop(txn.id, None)
            txn.suspended = False
            cleaned += 1
            retention = self.clock.now() - txn.commit_ts
            self._h_siread_retention.observe(retention)
            if self.trace is not None:
                self.trace.emit(
                    EventType.CLEANUP, txn.id, retention=retention
                )
        self.stats["cleaned"] += cleaned
        writers = self._retired_writers
        while writers and writers[0].commit_ts <= horizon:
            txn = self._retired_writers.popleft()
            self._retire(txn)
            self._registry.pop(txn.id, None)
        return cleaned

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
            table.vacuum(int(horizon), on_pause=on_pause) for table in tables
        )

    def suspended_count(self) -> int:
        """Retained committed transactions, set-aside (vetoed) ones too."""
        return len(self._suspended) + len(self._set_aside)

    def active_count(self) -> int:
        return len(self._active)

    def describe(self) -> dict:
        """Introspection snapshot: schema, version counts and the
        concurrency-control state the paper's Section 3.3 worries about
        (suspended transactions, retained locks)."""
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
            }

    # =================================================== internal helpers

    def _check_op(self, txn: Transaction) -> None:
        self._check_doom(txn)
        if not txn.is_active:
            raise TransactionStateError(f"transaction {txn.id} is {txn.status.value}")

    def _check_write(self, txn: Transaction) -> None:
        """Reject mutations on declared read-only transactions — the
        declaration is what lets the safe-snapshot machinery trust that
        the transaction can only ever be the T_in of a dangerous
        structure."""
        if txn.read_only:
            raise TransactionStateError(
                f"transaction {txn.id} is read-only"
            )

    def _check_doom(self, txn: Transaction) -> None:
        """A doomed transaction aborts at its next operation (Section 3.2's
        'the conflicting transaction must abort instead')."""
        if txn.doom_error is not None and txn.is_active:
            error = txn.doom_error
            self._abort_internal(txn, error.reason)
            raise error

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

    def _cleanup_due(self) -> bool:
        # Optimistic emptiness probe (atomic list reads): SI/S2PL commits
        # retain nothing, so their hot path pays no latch here.
        if not (self._suspended or self._set_aside or self._retired_writers):
            return False
        return (
            self.config.eager_cleanup
            or self.suspended_count() + len(self._retired_writers)
            > self.config.cleanup_threshold
        )

    # --------------------------------------------------------- lock paths

    def _rec_resource(self, table_name: str, key: Hashable) -> Resource:
        if self.config.granularity is LockGranularity.PAGE:
            return page_resource(table_name, self.table(table_name).leaf_page_of(key))
        return record_resource(table_name, key)

    def _acquire(self, txn: Transaction, resource: Resource, mode: LockMode) -> AcquireResult:
        """Acquire or raise LockWaitRequired.  A request resolved during
        its own enqueue's immediate deadlock resolution is acquired again
        once :meth:`_check_op` passes: denied means its owner was doomed
        (the check aborts and raises), granted means an EXCLUSIVE record
        may have waited on a key range and still owe the record itself."""
        while True:
            result = self.locks.acquire(txn, resource, mode)
            if result.status is AcquireStatus.GRANTED:
                return result
            if not result.request.resolved:
                raise LockWaitRequired(result.request)
            self._check_op(txn)

    def _acquire_read_locks(
        self, txn: Transaction, table_name: str, key: Hashable
    ) -> None:
        """Read-side locking for a point read of one key."""
        mode = txn.policy.read_lock_mode(txn)
        if mode is None:
            return
        resource = self._rec_resource(table_name, key)
        if mode is LockMode.SIREAD:
            # One call, no wait loop: a SIREAD never waits (Section 3.2).
            # The manager adds no entry for a re-read or for a key one
            # of our own ranges covers, and reports the EXCLUSIVE
            # holders of the resource (Fig 3.4 lines 2-4: a concurrent
            # writer) unless it is a re-read, whose writers since met
            # our entry and dispatched the edge themselves (Fig 3.5).
            result = self.locks.acquire(txn, resource, mode, key)
            for lock in result.detection_conflicts:
                self.dispatch_rw_edge(reader=txn, writer=lock.owner)
            if self._siread_budget is not None:
                self.locks.escalate(self._siread_budget)
            return
        # A blocking read mode (S2PL's SHARED) takes no record lock where
        # a range of its own covers the key: a writer meets the range.
        if not self.locks.holds_range_over(txn, table_name, key, mode):
            self._acquire(txn, resource, mode)

    def _acquire_write_locks(
        self, txn: Transaction, table_name: str, key: Hashable
    ) -> None:
        """Write-side locking: the EXCLUSIVE record lock, which meets
        every key range covering ``key`` in the lock manager — an S2PL
        scanner's SHARED range makes the write wait, and every SIREAD
        holder on the record or on a range covering it that has not
        committed, or committed after this transaction's snapshot, marks
        a rw-dependency holder -> txn (Fig 3.5/3.7): for updates,
        deletes, inserts and blind writes of brand-new keys alike.

        Under PAGE granularity the key's leaf page is X-locked first
        (the Berkeley DB lock point readers' page SIREADs meet); the
        record lock after it is still what scans' key ranges meet.
        """
        # Fail fast on first-committer-wins before queueing behind the
        # lock: if a newer committed version already exists, waiting is
        # futile (Berkeley DB aborts on the dirty-page request, Section
        # 4.2; InnoDB behaves likewise once the read view exists).
        if txn.snapshot is not None:
            self._first_committer_check(txn, table_name, key)
        resource = self._rec_resource(table_name, key)
        if resource.kind == "page":
            result = self._acquire(txn, resource, LockMode.EXCLUSIVE)
            self._report_readers(txn, result.detection_conflicts)
            resource = record_resource(table_name, key)
        result = self._acquire(txn, resource, LockMode.EXCLUSIVE)
        self._report_readers(txn, result.detection_conflicts)

    def _report_readers(self, txn: Transaction, conflicts: list) -> None:
        """Fig 3.5/3.7: each SIREAD holder a write met signals a potential
        rw edge holder -> txn; the writer's policy applies its
        concurrency filter (or drops the edge)."""
        if conflicts:
            with self._tracker_latch:
                for lock in conflicts:
                    txn.policy.on_write_conflict(writer=txn, reader=lock.owner)

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
        lock requests and fire a deferrable begin's verdict (a commit
        ticket is left to its batch leader, which observes the doom).
        The woken executor retries into :meth:`_check_op`, the one place
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
        """Immediate deadlock handler (InnoDB style)."""
        if self.config.deadlock_victim == "youngest":
            victim = max(cycle, key=lambda txn: txn.begin_seq)
        else:
            victim = request.owner
        if self.trace is not None:
            self.trace.emit(
                EventType.VICTIM, victim.id, cause="deadlock",
                policy=self.config.deadlock_victim,
                cycle=[txn.id for txn in cycle],
            )
        self.doom(victim, DeadlockError("deadlock victim", txn_id=victim.id))
        return victim

    # ------------------------------------------------------------- reads

    def _read_internal(
        self, txn: Transaction, table_name: str, key: Hashable, locking: bool
    ) -> tuple[Any, bool]:
        """Shared read path.  ``locking=True`` means the caller already
        acquired EXCLUSIVE (read_for_update)."""
        table = self.table(table_name)
        if not locking:
            self._acquire_read_locks(txn, table_name, key)
        self._ensure_snapshot(txn)
        if locking and txn.policy.uses_snapshots:
            # Promotion semantics: a locking read of an item with a newer
            # committed version conflicts exactly like a write would.
            self._first_committer_check(txn, table_name, key)
        return self._visible_value(txn, table_name, key, table.chain(key))

    def _visible_value(
        self,
        txn: Transaction,
        table_name: str,
        key: Hashable,
        chain,
        record: bool = True,
    ) -> tuple[Any, bool]:
        """Resolve what ``txn`` sees for key: own write set, then the
        snapshot (SI family) or the latest committed version (S2PL).
        The policy's ``on_read`` hook then runs its conflict detection
        (Fig 3.4 newer-version marking, SGT wr edges).  Chain reads are
        latch-free (see repro.mvcc.version)."""
        self.stats.inc("reads")
        if txn.write_set:  # read-only transactions skip the tuple build
            own = txn.write_set.get((table_name, key), _MISSING)
            if own is not _MISSING:
                if own is TOMBSTONE:
                    return None, False
                return own, True

        if chain is None:
            if record and self.history is not None:
                self.history.on_read(txn.id, table_name, key, None)
            return None, False

        if txn.policy.uses_snapshots:
            version = txn.snapshot.visible(chain)
        else:
            version = chain.latest()
        if txn.policy.tracks_reads:
            with self._tracker_latch:
                txn.policy.on_read(txn, table_name, key, chain, version)

        if record and self.history is not None:
            self.history.on_read(
                txn.id, table_name, key, version.commit_ts if version else None
            )
        if version is None or version.is_tombstone:
            return None, False
        return version.value, True

    def _overlay_write_set(
        self,
        txn: Transaction,
        table_name: str,
        lo: Hashable | None,
        hi: Hashable | None,
        results: list[tuple[Hashable, Any]],
    ) -> list[tuple[Hashable, Any]]:
        """Apply the transaction's own pending writes to a scan result."""
        own = {
            key: value
            for (tname, key), value in txn.write_set.items()
            if tname == table_name
            and (lo is None or not key < lo)
            and (hi is None or not hi < key)
        }
        if not own:
            return results
        merged = {key: value for key, value in results}
        for key, value in own.items():
            if value is TOMBSTONE:
                merged.pop(key, None)
            else:
                merged[key] = value
        return sorted(merged.items())

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

    def _abort_internal(self, txn: Transaction, reason: str) -> None:
        """Roll back.  Three phases: the abort decision and policy/tracker
        cleanup under the tracker latch; lock release and WAL I/O with no
        latch held; registry removal under the txn latch.

        Split into :meth:`_abort_tracker_phase` (decision, latched) and
        :meth:`_abort_release_phase` (I/O and teardown, unlatched) so the
        group-commit leader can take the decision for a failed batch
        member inside the batch's latched section — where later members
        must certify against it — and defer the release work until the
        batch latches drop (the release phase acquires the txn latch,
        which ranks *below* tracker/commit and may not be taken under
        them)."""
        bucket = self._abort_tracker_phase(txn, reason)
        if bucket is None:
            return
        self._abort_release_phase(txn, bucket)

    def _abort_tracker_phase(self, txn: Transaction, reason: str) -> str | None:
        """The abort decision: status flip, policy/tracker/monitor
        cleanup, abort accounting — one tracker-latch critical section.
        Returns the stats bucket, or None when the transaction already
        reached a terminal state (nothing to release)."""
        with self._tracker_latch:
            if not txn.is_active:
                return None
            txn.status = TransactionStatus.ABORTED
            self._prepared.discard(txn)
            txn.prepared = False
            txn.policy.on_abort(txn)
            if self.safe_snapshots is not None:
                self.safe_snapshots.on_abort(txn)
            self._retire(txn)
            bucket = reason if reason in self.stats["aborts"] else "aborted"
            self.stats["aborts"][bucket] += 1
            return bucket

    def _abort_release_phase(self, txn: Transaction, bucket: str) -> None:
        """Everything after the abort decision: WAL abort record, write
        buffer discard, lock release, registry removal, reporting.  Runs
        with no latch held on entry."""
        had_writes = bool(txn.write_set)
        if self.wal is not None and had_writes:
            self.wal.log_abort(txn.id)
        txn.write_set.clear()
        txn.write_kinds.clear()
        self.locks.release_all(txn, keep_siread=False)
        self.locks.cancel_waits(txn)
        with self._txn_latch:
            self._active.pop(txn.id, None)
            self._registry.pop(txn.id, None)
            self._oldest_active_read_ts()  # prunes the snapshot deque
        if self.history is not None:
            self.history.on_abort(txn.id)
        if self.trace is not None:
            self.trace.emit(EventType.ABORT, txn.id, reason=bucket)


_MISSING = object()
_INFINITY = float("inf")


def _live(snapshot: Snapshot | None, chain) -> bool:
    """Does ``chain`` hold a live row for a reader of ``snapshot`` (the
    latest committed version when the reader takes no snapshot)?"""
    version = chain.latest() if snapshot is None else snapshot.visible(chain)
    return version is not None and not version.is_tombstone
