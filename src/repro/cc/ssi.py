"""Serializable Snapshot Isolation — the paper's algorithm (Chapter 3) —
plus the Ports & Grittner read-only optimization as a derived policy.

:class:`SSIPolicy` owns the conflict tracker (:mod:`repro.core.conflicts`)
and translates the kernel's detection events into the pseudocode of
Figs 3.1-3.10: SIREAD read locks, newer-version marking on reads,
the Fig 3.5 concurrency filter on writes, the commit-time unsafe test,
and SIREAD/record retention after commit.

:class:`SSIReadOnlyOptPolicy` shares the same tracker — its transactions
interoperate with stock-SSI transactions edge-for-edge — and only relaxes
the dangerous-structure test via :meth:`CCPolicy.excuses_unsafe`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cc.policy import CCPolicy
from repro.core.conflicts import (
    SafeSnapshotMonitor,
    conflict_ref_id,
    make_tracker,
    pivot_triple,
)
from repro.engine.isolation import IsolationLevel
from repro.errors import TransactionAbortedError, UnsafeError
from repro.locking.modes import LockMode
from repro.obs.trace import EventType

if TYPE_CHECKING:
    from repro.engine.database import Database
    from repro.engine.transaction import Transaction


class SSIPolicy(CCPolicy):
    """The paper's Serializable SI discipline."""

    level = IsolationLevel.SERIALIZABLE_SSI
    edge_precedence = 5
    reads_newer_only = True

    def install(self, db: "Database") -> None:
        self.tracker = make_tracker(
            precise=db.config.precise_conflicts,
            victim_policy=db.config.victim_policy,
        )
        # Published on the database for tests/benchmarks that inspect
        # tracker state, and adopted by the unified metrics registry.
        db.tracker = self.tracker
        db.metrics.register_group("tracker", self.tracker.stats)
        # Safe-snapshot monitor (Ports & Grittner §2.4): watches declared
        # read-only transactions and tells them when their snapshot can no
        # longer join a dangerous structure.
        db.safe_snapshots = SafeSnapshotMonitor(db, family=SSIPolicy)
        db.metrics.register_group("safe_snapshots", db.safe_snapshots.stats)

    # ------------------------------------------------------------ lifecycle

    def on_begin(self, txn: "Transaction") -> None:
        self.tracker.init_transaction(txn)

    # ------------------------------------------------------------ read path

    def read_lock_mode(self, txn: "Transaction") -> Optional[LockMode]:
        if txn.snapshot_safe:
            # Safe snapshot: this transaction can never be the T_in of a
            # dangerous structure, so its reads need no SIREAD sentinels.
            return None
        return LockMode.SIREAD

    def on_read(
        self, txn: "Transaction", table_name: str, key, chain, version
    ) -> None:
        if txn.snapshot_safe:
            return  # edges from a safe snapshot cannot close a cycle
        # Fig 3.4 lines 8-9: every newer version this snapshot ignores is
        # an rw-dependency to its creator (if its record survives).
        read_ts = txn.snapshot.read_ts
        if not chain.has_newer(read_ts):  # O(1) common case: none ignored
            return
        for newer in chain.newer_than(read_ts):
            creator = self.db.find_transaction(newer.creator_id)
            if creator is not None:
                self.db.dispatch_rw_edge(reader=txn, writer=creator)

    # ----------------------------------------------------------- write path

    def on_write_conflict(
        self, writer: "Transaction", reader: "Transaction"
    ) -> None:
        """The Fig 3.5 concurrency filter, then pairwise edge dispatch."""
        if reader.is_aborted or reader.doom_error is not None:
            return
        if reader.is_committed and reader.commit_ts is not None:
            begin = writer.read_ts
            if begin is None or reader.commit_ts <= begin:
                # Not concurrent: the reader committed before the writer's
                # snapshot — including the deferred-snapshot case, where
                # the snapshot will be allocated after this lock grant and
                # hence after the reader's commit (Section 4.5).
                return
        self.db.dispatch_rw_edge(reader=reader, writer=writer)

    # ------------------------------------------------------------- rw edges

    def handles_rw_edge(
        self, reader: "Transaction", writer: "Transaction"
    ) -> bool:
        # Both ends must live in this tracker's conflict-slot world; the
        # read-only-optimized variant subclasses SSIPolicy and shares the
        # tracker, so ssi/ssi-ro transactions interoperate freely.
        return isinstance(reader.policy, SSIPolicy) and isinstance(
            writer.policy, SSIPolicy
        )

    def on_rw_edge(self, reader: "Transaction", writer: "Transaction") -> None:
        db = self.db
        victim = self.tracker.mark_conflict(reader, writer)
        if db.trace is not None:
            # Conflict-flag transition: the slot states *after* marking
            # (Fig 3.4/3.5's inConflict/outConflict bookkeeping).
            db.trace.emit(
                EventType.RW_CONFLICT, reader.id, peer=writer.id,
                reader_out=conflict_ref_id(reader.out_conflict, reader),
                writer_in=conflict_ref_id(writer.in_conflict, writer),
            )
        if victim is not None:
            if db.trace is not None:
                self._trace_victim(victim, reader, writer)
            db.doom(
                victim,
                UnsafeError("unsafe pattern of conflicts", txn_id=victim.id),
            )

    def _trace_victim(
        self,
        victim: "Transaction",
        reader: "Transaction",
        writer: "Transaction",
    ) -> None:
        """Emit the victim-selection event with the full pivot triple.

        The pivot is whichever edge party carries both an incoming and an
        outgoing conflict (the victim itself under the default policy; the
        committed party when the tracker's closing-edge rule fired)."""
        candidates = [
            txn for txn in (victim, writer, reader)
            if bool(txn.in_conflict) and bool(txn.out_conflict)
        ]
        pivot = candidates[0] if candidates else victim
        t_in, pivot_id, t_out = pivot_triple(pivot)
        self.db.trace.emit(
            EventType.VICTIM, victim.id, cause="unsafe",
            pivot=pivot_id, t_in=t_in, t_out=t_out,
            policy=self.db.config.victim_policy,
        )

    # --------------------------------------------------------------- commit

    def before_commit(
        self, txn: "Transaction"
    ) -> Optional[TransactionAbortedError]:
        if not self.tracker.check_commit(txn):
            return None
        db = self.db
        if db.trace is not None:
            t_in, pivot_id, t_out = pivot_triple(txn)
            db.trace.emit(
                EventType.UNSAFE, txn.id, at="commit",
                pivot=pivot_id, t_in=t_in, t_out=t_out,
            )
        return UnsafeError(
            "commit would risk a non-serializable execution", txn_id=txn.id
        )

    def after_commit(self, txn: "Transaction") -> None:
        self.tracker.after_commit(txn)

    def retain_read_locks(self, txn: "Transaction") -> bool:
        if txn.snapshot_safe:
            # Safe snapshots retain nothing: their SIREADs were already
            # dropped when the monitor proved safety.
            return False
        # Suspend if SIREAD locks are held OR an outgoing conflict was
        # detected (the Section 3.7.3 adjustment).
        return (
            bool(txn.sireads) or self.db.locks.holds_any_siread(txn)
            or bool(txn.out_conflict)
        )

    def needs_findable_record(self, txn: "Transaction") -> bool:
        # A committed writer must stay findable while concurrent
        # transactions remain: Fig 3.4's newer-version branch resolves
        # reader -> writer edges by creator id, so dropping a write-only
        # committed record from the registry silently loses those edges.
        # (Registry-only retention — the record is not *suspended*: with
        # no SIREADs and no outgoing conflict it can never be a pivot.)
        return bool(txn.write_set)


class SSIReadOnlyOptPolicy(SSIPolicy):
    """SSI plus the read-only optimization of Ports & Grittner
    (*Serializable Snapshot Isolation in PostgreSQL*, VLDB 2012, §2.4).

    A dangerous structure ``T_in --rw--> pivot --rw--> T_out`` with a
    *read-only* ``T_in`` only threatens serializability when ``T_out``
    committed before ``T_in`` took its snapshot: otherwise ``T_in`` can be
    serialized before ``T_out`` and the cycle cannot complete.  The excuse
    needs the enhanced tracker's transaction references (precise slot
    identities); under the basic boolean tracker it never fires and the
    policy degrades to stock SSI.
    """

    level = IsolationLevel.SERIALIZABLE_SSI_RO

    def install(self, db: "Database") -> None:
        # Share SSIPolicy's tracker (installed earlier in registration
        # order) so ssi and ssi-ro transactions see each other's edges.
        self.tracker = db.tracker

    def excuses_unsafe(self, txn: "Transaction") -> bool:
        t_in = txn.in_conflict
        t_out = txn.out_conflict
        if t_in is None or t_in is txn or t_in is True:
            return False  # T_in identity unknown: assume the worst.
        if getattr(t_in, "snapshot_safe", False):
            # T_in runs under a proven-safe snapshot: it can always be
            # serialized before the pivot; no cycle can complete.
            return True
        if t_in.write_set:
            return False  # not read-only: the excuse does not apply.
        if not (t_in.is_committed or getattr(t_in, "read_only", False)):
            # An active T_in that has not *declared* read-only may still
            # write; only a finished or declared-RO T_in is excusable.
            return False
        if t_out is None or t_out is txn or t_out is True:
            return False  # T_out identity unknown.
        if not t_out.is_committed:
            return False
        if t_in.read_ts is None:
            return False
        # Safe exactly when T_out committed after T_in's snapshot.
        return t_out.commit_ts > t_in.read_ts
