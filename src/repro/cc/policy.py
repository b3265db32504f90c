"""The concurrency-control policy interface.

The paper's central claim is that Serializable SI is a *modular* runtime
addition to a snapshot-isolation engine (Chapter 3), and both follow-up
systems the literature compares against — PostgreSQL's SSI (Ports &
Grittner, VLDB 2012) and SSN (Wang et al., VLDBJ 2017) — structure their
serializability certifiers as a layer over a CC-agnostic kernel.  This
module is that seam: :class:`~repro.engine.database.Database` is a pure
MVCC + locking kernel, and every discipline-specific decision is a hook on
the :class:`CCPolicy` owned by each transaction.

One policy instance exists per (database, isolation level); transactions
carry a reference to theirs (``txn.policy``), assigned by the single
registry lookup in ``Database.begin`` — the only place the kernel maps an
:class:`~repro.engine.isolation.IsolationLevel` to behavior.

Mixed-level rw edges (Section 3.8) are resolved by *pairwise dispatch*:
the kernel offers the edge to the reader's and writer's policies in
descending :attr:`CCPolicy.edge_precedence` order and the first policy
whose :meth:`CCPolicy.handles_rw_edge` accepts it records the edge.  If
neither accepts, the kernel counts a ``mixed_edges_dropped`` and moves on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.engine.isolation import IsolationLevel
from repro.locking.modes import LockMode

if TYPE_CHECKING:
    from repro.engine.database import Database
    from repro.engine.transaction import Transaction
    from repro.errors import TransactionAbortedError


class CCPolicy:
    """Strategy interface for one concurrency-control discipline.

    Subclasses set :attr:`level` and override the hooks they need; the
    defaults implement the most permissive discipline (plain snapshot
    isolation: no read locks, no dependency tracking, no certification).
    """

    #: the isolation level this policy implements (registry key).
    level: IsolationLevel

    #: reads resolve against a begin-time snapshot (False only for S2PL's
    #: current reads).
    uses_snapshots: bool = True

    #: pairwise rw-edge dispatch order: the higher-precedence side of an
    #: edge is offered it first (SGT outranks SSI so any edge touching an
    #: SGT transaction lands in the full serialization graph).
    edge_precedence: int = 0

    #: ``on_read`` acts only on rows whose chain holds a committed version
    #: newer than the snapshot (SSI's Fig 3.4 lines 8-9), so point reads
    #: and scans call it (or :meth:`on_read_batch`) for just those rows.
    #: False: every row (SGT records a wr edge per row read).
    reads_newer_only: bool = False

    def __init__(self, db: "Database"):
        self.db = db
        # Precomputed hook-override flags: the kernel serialises every
        # policy hook under its tracker latch, and these let the hot
        # read/write/begin paths skip both the latch and a no-op call
        # when the policy does not override the hook (plain SI reads,
        # for instance, pay nothing).
        cls = type(self)
        self.tracks_begin = cls.on_begin is not CCPolicy.on_begin
        self.tracks_reads = (
            cls.on_read is not CCPolicy.on_read
            or cls.on_read_batch is not CCPolicy.on_read_batch
        )
        self.tracks_writes = cls.on_write is not CCPolicy.on_write
        self.retires = cls.on_transaction_retired is not CCPolicy.on_transaction_retired
        # Commit-side analogues: a policy with no certification hooks
        # commits without the tracker latch, and one with no retention
        # hooks finalizes without it (plain SI and S2PL hit both fast
        # paths — their commits touch only the commit latch, if that).
        self.certifies = (
            cls.before_commit is not CCPolicy.before_commit
            or cls.after_commit is not CCPolicy.after_commit
        )
        self.retains = (
            cls.retain_read_locks is not CCPolicy.retain_read_locks
            or cls.retain_record is not CCPolicy.retain_record
        )

    def install(self, db: "Database") -> None:
        """Attach policy-owned subsystems to the database (called once,
        after every registered policy is constructed).  Policies that own
        shared engine state — the SSI conflict tracker, the SGT certifier
        — publish it and register its metrics group here."""

    # ------------------------------------------------------------ lifecycle

    def on_begin(self, txn: "Transaction") -> None:
        """Per-transaction setup at begin (Fig 3.1: conflict slots,
        certifier node registration...)."""

    def on_abort(self, txn: "Transaction") -> None:
        """The transaction is rolling back (own-policy cleanup)."""

    def on_transaction_retired(self, txn: "Transaction") -> None:
        """``txn`` — of *any* level — is leaving the system (aborted, or
        committed-suspended and now cleaned up).  Called on every
        registered policy, because cross-level edges mean one policy's
        bookkeeping can reference another policy's transactions."""

    # ------------------------------------------------------------ read path

    def read_lock_mode(self, txn: "Transaction") -> Optional[LockMode]:
        """The lock mode a read acquires: SHARED (blocking, S2PL), SIREAD
        (non-blocking sentinel, SSI/SGT) or None (no read locks, SI)."""
        return None

    def on_read(
        self, txn: "Transaction", table_name: str, key, chain, version
    ) -> None:
        """A read resolved ``version`` (possibly None/tombstone) from
        ``chain``.  SSI marks rw edges to creators of ignored newer
        versions (Fig 3.4 lines 8-9); SGT additionally records the wr
        edge to the creator of the version read."""

    def on_read_batch(self, txn: "Transaction", table_name: str, rows) -> None:
        """A scan resolved ``rows``, ``(key, chain, version)`` triples —
        every row, or with :attr:`reads_newer_only` only those whose
        chain holds a version newer than the snapshot.  One call per
        scan, under one tracker-latch section; the default replays
        :meth:`on_read` row by row."""
        on_read = self.on_read
        for key, chain, version in rows:
            on_read(txn, table_name, key, chain, version)

    # ----------------------------------------------------------- write path

    def on_write(self, txn: "Transaction", table_name: str, key) -> None:
        """A write of ``(table_name, key)`` passed its conflict checks and
        is about to enter the write set.  SGT certifies the ww edge from
        the superseded version's creator here."""

    def on_write_conflict(
        self, writer: "Transaction", reader: "Transaction"
    ) -> None:
        """``writer`` (owned by this policy) acquired a write lock and
        found ``reader`` holding a SIREAD lock on the same resource — the
        Fig 3.5 / Fig 3.7 detection point.  Policies that track
        rw-antidependencies apply their concurrency filter and hand the
        edge to the kernel's pairwise dispatch; the default (a
        non-tracking writer) records the dropped mixed edge so Section
        3.8 mixed-workload runs stay auditable."""
        self.db.count_dropped_mixed_edge(reader=reader, writer=writer)

    # ------------------------------------------------------------- rw edges

    def handles_rw_edge(
        self, reader: "Transaction", writer: "Transaction"
    ) -> bool:
        """Can this policy record the rw edge ``reader -> writer``?  Part
        of the pairwise mixed-level dispatch (see the module docstring)."""
        return False

    def on_rw_edge(self, reader: "Transaction", writer: "Transaction") -> None:
        """Record the rw edge (only called when :meth:`handles_rw_edge`
        accepted it)."""

    # --------------------------------------------------------------- commit

    def before_commit(
        self, txn: "Transaction"
    ) -> Optional["TransactionAbortedError"]:
        """Commit certification (Fig 3.2 / Fig 3.10's unsafe test).
        Return an abort error to veto the commit — the kernel rolls the
        transaction back and raises it — or None to allow."""
        return None

    def after_commit(self, txn: "Transaction") -> None:
        """Post-commit bookkeeping while locks are still held (Fig 3.10
        lines 9-12: conflict-slot maintenance)."""

    def excuses_unsafe(self, txn: "Transaction") -> bool:
        """Consulted by the enhanced conflict tracker when ``txn``'s slots
        form a dangerous structure: return True to excuse it (commit
        anyway).  The hook behind read-only-style optimizations — stock
        policies never excuse."""
        return False

    def retain_read_locks(self, txn: "Transaction") -> bool:
        """Should the committing transaction's SIREAD locks outlive it
        (Section 3.3)?  The kernel passes the answer to the lock manager
        as ``keep_siread``."""
        return False

    def retain_record(self, txn: "Transaction", keep_siread: bool) -> bool:
        """Should the committed transaction's record stay findable (the
        suspended set, Section 3.3)?  Defaults to following the SIREAD
        decision; SGT retains every committed node."""
        return keep_siread

    def needs_findable_record(self, txn: "Transaction") -> bool:
        """When the record is *not* retained (no SIREADs, no
        out-conflict), must it nonetheless stay findable in the registry
        while a concurrent snapshot predates its commit?  SSI answers yes
        for writers: the newer-version read check (Fig 3.4 lines 8-9)
        resolves reader -> writer edges by creator id, and a write-only
        committed transaction dropped from the registry loses them."""
        return False

    def may_cleanup(self, txn: "Transaction") -> bool:
        """May this suspended committed transaction be dropped now that no
        active snapshot overlaps it (Sections 4.3.1/4.6.1)?  SGT vetoes
        while incoming graph edges remain."""
        return True

    # ------------------------------------------------------------- plumbing

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.level.value})"
