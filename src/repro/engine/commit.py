"""The commit pipeline: Fig 3.2's commit, its two-phase variant and the
cleanup of suspended transactions (Sections 3.3, 4.4; DESIGN.md "Commit
pipeline").

:class:`CommitPipeline` is mixed into
:class:`~repro.engine.database.Database` and owns the state only it
mutates: the retention lists, the prepared set and the buffered
retention samples.

A commit is one body of three steps: *decide*
(:meth:`~CommitPipeline._decide`: certify and install under the tracker
latch, or abort), *publish* (:meth:`~CommitPipeline._publish`: a WAL
flush through the commit's LSN with no latch held and every lock still
held — flush before release — then the history and trace) and
*finalize* (:meth:`~CommitPipeline.finalize_commit`: suspend or retire,
sweep, release locks).  :meth:`~CommitPipeline.commit` is
:meth:`~CommitPipeline.prepare_commit` (decide, publish) then
:meth:`~CommitPipeline.finalize_commit`; the second phase of a two-phase
commit installs and publishes the same way.

The install logs the commit: :meth:`~CommitPipeline._logical_commit`
appends the write records and the commit record in one WAL call, under
the commit latch that draws the commit timestamp and installs the
versions, so LSN order is commit order.  A transaction that saw the
versions took its snapshot after that latch section, so its own records
follow them and its flush, which makes everything appended before it
durable, covers them: an acknowledged commit never depends on a lost
one.  A checkpoint stamps its record under the same latch, so truncating
the log before it never drops a commit its image lacks.  Concurrent
commits share fsyncs inside the WAL (``flush(lsn)`` returns at once
when another flush covered the LSN); the engine never makes one commit
wait for another.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from repro.engine.transaction import Transaction, TransactionStatus
from repro.errors import (
    TransactionAbortedError,
    TransactionStateError,
    UnsafeError,
)
from repro.mvcc.version import TOMBSTONE, Version
from repro.obs.trace import EventType

__all__ = ["CommitPipeline"]

#: buffered histogram samples folded in per observe_many
_SAMPLE_BATCH = 256
#: PREPARE summary of a transaction with clean conflict slots (also the
#: whole summary for non-certifying levels: SI/S2PL export no rw state).
_EMPTY_SUMMARY = {"in": False, "out": False,
                  "in_partner": None, "out_partner": None}


class CommitPipeline:
    """Commit, two-phase commit and cleanup of the
    :class:`~repro.engine.database.Database` it is mixed into."""

    if TYPE_CHECKING:  # the rest comes from the Database it is mixed into
        def __getattr__(self, name: str) -> Any: ...

    def __init__(self) -> None:
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
        metrics = self.metrics
        self._h_chain_length = metrics.histogram(
            "version_chain_length", edges=(1, 2, 4, 8, 16, 32, 64)
        )
        self._h_siread_retention = metrics.histogram(
            "siread_retention", edges=(1, 4, 16, 64, 256, 1024, 4096)
        )
        self._h_suspended = metrics.histogram(
            "suspended_transactions", edges=(1, 2, 4, 8, 16, 32, 64, 128)
        )
        #: SSI-only per-commit samples, buffered under the tracker latch:
        #: one observe_many per _SAMPLE_BATCH and at every snapshot
        self._suspended_samples: list[int] = []
        self._retention_samples: list[int] = []
        metrics.before_snapshot(self._fold_samples)

    # ------------------------------------------------------------- entry

    def commit(self, txn: Transaction) -> None:
        """Commit: unsafe check, version install and log append, flush,
        lock release, suspension and cleanup (Fig 3.2 / Fig 3.10) —
        :meth:`prepare_commit` then :meth:`finalize_commit`.  Never
        waits on another commit.

        A prepared transaction is refused with
        :class:`~repro.errors.TransactionStateError` and stays prepared:
        only the coordinator decides it (:meth:`commit_prepared`).
        """
        self.prepare_commit(txn)
        self.finalize_commit(txn)

    def prepare_commit(self, txn: Transaction) -> None:
        """The atomic logical commit: checks, commit timestamp, version
        installation and log append, then the flush.  After this the
        transaction is durably committed but still holds its locks;
        :meth:`finalize_commit` releases them.

        Split from finalize so the simulator can charge the log-flush I/O
        while locks are still held — the ordering the paper enforces in
        InnoDB (Section 4.4, "locks are not released until after the log
        has been flushed").  Refuses a prepared transaction, as
        :meth:`commit` does.
        """
        if txn.prepared:
            raise TransactionStateError(
                f"transaction {txn.id} is prepared: commit_prepared decides it"
            )
        self._check_op(txn)
        error = self._decide(txn)
        if error is not None:
            raise error
        self._publish(txn)

    # ------------------------------------------------------------ decide

    def _decide(self, txn: Transaction) -> TransactionAbortedError | None:
        """The commit decision: certify and install, or abort.  Returns
        the veto (``txn`` is then rolled back) or None (``txn`` is
        committed and logged, not yet flushed).  Caller holds no
        latch."""
        if txn.policy.certifies:
            # Certification through status flip is one tracker-latch
            # critical section, so no rw edge can land between a clean
            # unsafe check and the transaction turning COMMITTED without
            # being serialised before the check.
            with self._tracker_latch:
                error = self._certify(txn)
                if error is None:
                    self._install_commit(txn)
        else:
            # No certification hooks (plain SI, S2PL): nothing for the
            # tracker latch to order against.
            error = txn.doom_error
            if error is None:
                self._install_commit(txn)
        if error is not None:
            self._abort_internal(txn, error.reason)
        return error

    def _certify(self, txn: Transaction) -> TransactionAbortedError | None:
        """Tracker-latched: a doom that landed since the caller's last
        check (rw-edge victims are chosen under this latch, so such a
        doom cannot slip past the status flip), the commit-time unsafe
        check, and the rule that committing must not complete a
        dangerous structure around a prepared pivot (the pivot can no
        longer abort locally, so this transaction yields).  Returns the
        veto, or None."""
        error = txn.doom_error or txn.policy.before_commit(txn)
        if error is None and self._prepared:
            error = self._endangering_prepared(txn)
        return error

    def _install_commit(self, txn: Transaction) -> None:
        """Tracker-latched for certifying policies: commit timestamp,
        status flip, version install, then the policy's post-commit
        bookkeeping."""
        self._logical_commit(txn)
        if txn.policy.certifies:
            if self.safe_snapshots is not None:
                # Before after_commit: the enhanced tracker munges
                # committed conflict references to self-references
                # there, and the monitor needs the real T_out.
                self.safe_snapshots.on_commit(txn)
            txn.policy.after_commit(txn)

    def _logical_commit(self, txn: Transaction) -> None:
        """Allocate the commit timestamp, flip the status, install the
        write set and log it.  A read-only transaction installs and logs
        nothing, so it skips the commit latch entirely — the latch exists
        to keep snapshot assignment atomic against version installation,
        and there is nothing to install (the clock is internally
        synchronised)."""
        if not txn.write_set:
            txn.commit_ts = self.clock.next()
            txn.status = TransactionStatus.COMMITTED
            return
        page_commit_ts = self._page_commit_ts
        # A chain a tracking writer's insert creates names it as the
        # pending writer too, until the writer leaves ``_active``.
        writer = txn.id if txn.policy.tracks_reads else None
        wal = self.wal
        kinds = txn.write_kinds
        redo = None if wal is None else [
            (table_name, key, None if value is TOMBSTONE else value,
             value is TOMBSTONE, kinds.get((table_name, key), "write"))
            for (table_name, key), value in txn.write_set.items()
        ]
        chain_lengths = []
        with self._commit_latch:
            txn.commit_ts = self.clock.next()
            txn.status = TransactionStatus.COMMITTED
            for (table_name, key), value in txn.write_set.items():
                table = self.table(table_name)
                with table.latch:
                    chain = table.ensure_chain(key)[0]
                    chain_lengths.append(chain.install(
                        Version(value=value, commit_ts=txn.commit_ts,
                                creator_id=txn.id)
                    ))
                    if writer is not None:
                        chain.writer = writer
                    if page_commit_ts is not None:
                        page_key = (table_name, table.leaf_page_of(key))
                        page_commit_ts[page_key] = txn.commit_ts
            if redo is not None:
                txn.commit_lsn = wal.log_commit(  # latch-ok: LSN order must be commit order
                    txn.id, txn.commit_ts, redo).lsn
        self._h_chain_length.observe_many(chain_lengths)

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

    # ----------------------------------------------------------- publish

    def _publish(self, txn: Transaction) -> None:
        """No latch held: flush the log through ``txn``'s commit record,
        then record the commit in the history and trace.  Its locks are
        still held — finalize_commit releases them — which is the paper's
        flush-before-release ordering (Section 4.4).  The flush returns
        at once when a concurrent commit's flush already covered it."""
        if txn.commit_lsn and self.config.wal_flush_on_commit:
            self.wal.flush(txn.commit_lsn)
        if self.history is not None:
            self.history.on_commit(txn.id, txn.commit_ts)
        if self.trace is not None:
            self.trace.emit(EventType.COMMIT, txn.id, commit_ts=txn.commit_ts)

    # ---------------------------------------------------------- finalize

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
                self._fold_tallies(txn, commits=1)
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
            self._fold_tallies(txn, commits=1)
            if retain:
                txn.suspended = True
                self._suspended.append(txn)
                suspended_depth = len(self._suspended) + len(self._set_aside)
                if suspended_depth > self.stats["suspended_peak"]:
                    self.stats["suspended_peak"] = suspended_depth
                self._suspended_samples.append(suspended_depth)
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
            if len(self._suspended_samples) + len(self._retention_samples) >= _SAMPLE_BATCH:
                self._fold_samples()
        lm.release_all(txn, keep_siread=keep_siread)

    def _fold_samples(self) -> None:
        """Fold the buffered histogram samples in (tracker latch)."""
        with self._tracker_latch:
            for histogram, samples in (
                (self._h_suspended, self._suspended_samples),
                (self._h_siread_retention, self._retention_samples),
            ):
                if samples:
                    histogram.observe_many(samples)
                    samples.clear()

    # -------------------------------------------------- two-phase commit

    def prepare_for_commit(self, txn: Transaction) -> dict:
        """First phase of a coordinator-driven two-phase commit.

        Runs local certification (the same unsafe check a plain commit
        would run) but installs nothing: the transaction stays ACTIVE,
        keeps its write locks (first-committer-wins still fires against
        it) and is marked *prepared* — from here on it cannot be chosen
        as an SSI or deadlock victim (prepared-transaction-wins; see
        ``Database.doom`` and the trackers' ``_choose_victim``), and any
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
        self._publish(txn)

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

    # ----------------------------------------------------------- cleanup

    def cleanup_suspended(self) -> int:
        """Retire the retained committed transactions no active snapshot
        overlaps (Sections 4.3.1/4.6.1); returns how many suspended ones.
        Like PostgreSQL's finished list against ``SxactGlobalXmin``, both
        commit-ordered lists are popped from the head while ``commit_ts
        <= horizon``: an entry a concurrent finalize appended out of order
        only waits for a later sweep.  A head whose policy vetoes cleanup
        (an SGT node with incoming edges) is set aside, never blocking
        those behind, and rechecked until a pass retires nothing — a
        retirement later in the same sweep may have removed its edge —
        and again on every later sweep."""
        with self._txn_latch, self._tracker_latch:
            return self._sweep(self._oldest_active_read_ts())

    def _sweep(self, horizon: float) -> int:
        """:meth:`cleanup_suspended`'s body against ``horizon``; the
        caller holds the txn and tracker latches (a committing
        :meth:`finalize_commit` runs it in its own latched section)."""
        due, self._set_aside = self._set_aside, []
        suspended = self._suspended
        while suspended and suspended[0].commit_ts <= horizon:
            due.append(suspended.popleft())
        retired: list[Transaction] = []
        now = self.clock.now() if due else 0
        while due:
            vetoed = []
            for txn in due:
                if not txn.policy.may_cleanup(txn):
                    vetoed.append(txn)
                    continue
                retired.append(txn)
                if self._retiring_policies:
                    self._retire(txn)
                self._registry.pop(txn.id, None)
                txn.suspended = False
                retention = now - txn.commit_ts
                self._retention_samples.append(retention)
                if self.trace is not None:
                    self.trace.emit(EventType.CLEANUP, txn.id, retention=retention)
            if len(vetoed) == len(due):
                break
            due = vetoed
        self.locks.retire_reads(retired)
        cleaned = len(retired)
        self._set_aside = due
        self.stats["cleaned"] += cleaned
        writers = self._retired_writers
        while writers and writers[0].commit_ts <= horizon:
            txn = self._retired_writers.popleft()
            self._retire(txn)
            self._registry.pop(txn.id, None)
        return cleaned

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

    def suspended_count(self) -> int:
        """Retained committed transactions, set-aside (vetoed) ones too."""
        return len(self._suspended) + len(self._set_aside)
