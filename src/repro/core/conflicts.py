"""Conflict tracking for Serializable Snapshot Isolation.

The algorithm detects a potentially non-serializable execution whenever a
transaction accumulates *both* an incoming and an outgoing
rw-antidependency with concurrent transactions — the pivot of a dangerous
structure (Theorem 2 / Fig 2.2).  Two trackers implement the bookkeeping:

* :class:`BasicConflictTracker` — one boolean per direction, exactly the
  pseudocode of Figs 3.2-3.5.  Conservative: aborts every pivot.
* :class:`EnhancedConflictTracker` — per-direction *transaction
  references* (Figs 3.9-3.10).  A pivot is allowed to commit when the
  recorded commit order proves the outgoing transaction did not commit
  first, eliminating the Fig 3.8 class of false positives.

Both implement ``markConflict(reader, writer)``: record the
rw-dependency reader -> writer, and return the transaction that must abort
(or None).  The engine translates the returned victim into either an
immediate :class:`~repro.errors.UnsafeError` (when the victim is the
transaction executing the operation) or a *doom* flag delivered at the
victim's next operation.

Transactions passed in must expose: ``id``, ``begin_ts``, ``commit_ts``
(None until committed), ``is_committed``, ``is_active``, ``in_conflict``,
``out_conflict``.  For the basic tracker the conflict attributes hold
booleans; for the enhanced tracker they hold ``None`` / a transaction /
the sentinel semantics of a self-reference.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.victim import POLICIES, VictimPolicy, pivot_first
from repro.obs.registry import CounterGroup


def conflict_ref_id(ref, txn) -> int | str | None:
    """Render a conflict slot for telemetry.

    ``None``/``False`` -> no conflict recorded; the transaction itself ->
    ``"multiple"`` (self-reference, order lost); ``True`` (basic boolean
    tracker) -> ``"unknown"``; otherwise the peer's id.
    """
    if ref is None or ref is False:
        return None
    if ref is True:
        return "unknown"
    if ref is txn:
        return "multiple"
    return ref.id


def pivot_triple(pivot) -> tuple:
    """The dangerous structure around ``pivot``:
    ``(t_in, pivot_id, t_out)`` ids, from its conflict slots."""
    return (
        conflict_ref_id(pivot.in_conflict, pivot),
        pivot.id,
        conflict_ref_id(pivot.out_conflict, pivot),
    )


class ConflictTracker:
    """Interface shared by the basic and enhanced trackers."""

    __slots__ = ("victim_policy", "stats")

    #: set by subclasses: value stored in fresh transactions' conflict slots
    empty_value: object = None

    def __init__(self, victim_policy: VictimPolicy | str = "pivot"):
        if isinstance(victim_policy, str):
            victim_policy = POLICIES[victim_policy]
        self.victim_policy: VictimPolicy = victim_policy
        #: statistics for the evaluation: how many times each path fired.
        #: A CounterGroup so the engine's MetricsRegistry can adopt it.
        self.stats = CounterGroup(
            {"marked": 0, "unsafe_at_mark": 0, "unsafe_at_commit": 0,
             "excused": 0, "prepared_wins": 0}
        )

    def init_transaction(self, txn) -> None:
        """Fig 3.1: establish the conflict slots at begin(T)."""
        txn.in_conflict = self.empty_value
        txn.out_conflict = self.empty_value

    def mark_conflict(self, reader, writer) -> Optional[object]:
        """Record rw-dependency reader -> writer; return victim or None."""
        raise NotImplementedError

    def check_commit(self, txn) -> bool:
        """Return True if ``txn`` must abort instead of committing
        (the Fig 3.2 / Fig 3.10 unsafe test).  Does not mutate."""
        raise NotImplementedError

    def after_commit(self, txn) -> None:
        """Post-commit slot maintenance (no-op for the basic tracker)."""

    # ------------------------------------------------------------ helpers

    def _abort_early_victim(self, reader, writer) -> Optional[object]:
        """Section 3.7.1: abort an active transaction as soon as it holds
        both conflicts, rather than waiting for its commit."""
        candidates = [
            txn
            for txn in (reader, writer)
            if txn.is_active and self._has_in(txn) and self._has_out(txn)
        ]
        if not candidates:
            return None
        return self._choose_victim(candidates, reader, writer)

    def _choose_victim(self, candidates, reader, writer) -> Optional[object]:
        """Prepared-transaction-wins: a transaction that has voted yes in
        a two-phase commit can no longer be aborted locally — its fate
        belongs to the coordinator.  When every dangerous candidate is
        prepared, the edge's other (still-unprepared) party aborts
        instead; the victim-restore in mark_conflict then removes the
        edge that endangered the prepared pivot."""
        eligible = [
            txn for txn in candidates if not getattr(txn, "prepared", False)
        ]
        if eligible:
            self.stats["unsafe_at_mark"] += 1
            return self.victim_policy(eligible, reader, writer)
        # New edges always originate from an operation of an unprepared
        # transaction, so the counterparty of a prepared candidate is
        # the other endpoint of (reader, writer).
        counterparty = writer if candidates[0] is reader else reader
        if counterparty.is_active and not getattr(counterparty, "prepared", False):
            self.stats["unsafe_at_mark"] += 1
            self.stats["prepared_wins"] += 1
            return counterparty
        return None

    @staticmethod
    def _has_in(txn) -> bool:
        return bool(txn.in_conflict)

    @staticmethod
    def _has_out(txn) -> bool:
        return bool(txn.out_conflict)


class BasicConflictTracker(ConflictTracker):
    """Boolean in/out flags — the algorithm of Section 3.2.

    ``markConflict`` (Fig 3.3): if the writer has committed with an
    outgoing conflict already recorded, the reader closes a potential
    cycle and must abort; symmetrically for a committed reader with an
    incoming conflict.  Otherwise both flags are set and any active
    transaction that just became a pivot is aborted at once — abort
    early, as both of the paper's prototypes do (Section 3.7.1).
    """

    __slots__ = ()

    empty_value = False

    def mark_conflict(self, reader, writer) -> Optional[object]:
        if reader.id == writer.id:
            return None
        self.stats["marked"] += 1
        if writer.is_committed and writer.out_conflict:
            self.stats["unsafe_at_mark"] += 1
            return reader
        if reader.is_committed and reader.in_conflict:
            self.stats["unsafe_at_mark"] += 1
            return writer
        prior_reader_out = reader.out_conflict
        prior_writer_in = writer.in_conflict
        reader.out_conflict = True
        writer.in_conflict = True
        victim = self._abort_early_victim(reader, writer)
        # The edge dies with its victim: restore the survivor's flag if
        # this edge is what set it ("conflicts are not recorded against
        # transactions ... that will abort", Section 3.7.1).
        if victim is reader:
            writer.in_conflict = prior_writer_in
        elif victim is writer:
            reader.out_conflict = prior_reader_out
        return victim

    def check_commit(self, txn) -> bool:
        unsafe = bool(txn.in_conflict and txn.out_conflict)
        if unsafe:
            self.stats["unsafe_at_commit"] += 1
        return unsafe


#: Sentinel commit-time bounds used when a reference cannot prove order.
_NEG_INF = -math.inf
_POS_INF = math.inf


class EnhancedConflictTracker(ConflictTracker):
    """Transaction-reference conflict slots — Section 3.6 (Figs 3.9/3.10).

    Slots hold ``None`` (no conflict), a transaction reference (exactly one
    conflict in that direction), or the transaction itself (self-reference:
    more than one conflict, equivalent to the basic boolean).

    The unsafe test compares commit times: a dangerous structure only
    matters when the outgoing transaction committed first (Theorem 2), so
    a pivot whose unique outgoing transaction has not committed — or
    committed after the incoming one — may commit safely.

    The danger test (:meth:`_is_dangerous`) encodes Theorem 2's "Tout is
    the first to commit":

    * out slot is a *single uncommitted* reference — the outgoing
      transaction will commit after this one, so it cannot have committed
      first: **safe**, regardless of the in slot;
    * out slot is a *self-reference* (several outgoing conflicts, order
      lost) — assume the worst: **dangerous** whenever the in slot is set;
    * out slot committed at ``out_ts`` — dangerous unless the in slot is a
      single committed reference with ``in_ts < out_ts`` (the Fig 3.8
      false positive this tracker eliminates).
    """

    __slots__ = ()

    empty_value = None

    def mark_conflict(self, reader, writer) -> Optional[object]:
        if reader.id == writer.id:
            return None
        self.stats["marked"] += 1
        # Fig 3.9 lines 3-7: the reader closes a cycle with a committed
        # pivot whose outgoing transaction committed first (or whose
        # outgoing order is unknown — a self-reference).
        if writer.is_committed and writer.out_conflict is not None:
            out_bound = self._out_bound(writer)
            if out_bound is not None and out_bound <= writer.commit_ts:
                self.stats["unsafe_at_mark"] += 1
                return reader
        # A repeat of the same edge keeps the precise reference; only a
        # conflict with a *different* transaction degrades the slot to the
        # self-reference ("multiple conflicts, order unknown").
        prior_reader_out = reader.out_conflict
        prior_writer_in = writer.in_conflict
        if reader.out_conflict is None:
            reader.out_conflict = writer
        elif reader.out_conflict is not writer:
            reader.out_conflict = reader
        if writer.in_conflict is None:
            writer.in_conflict = reader
        elif writer.in_conflict is not reader:
            writer.in_conflict = writer
        victim = self._abort_early_victim_enhanced(reader, writer)
        # The edge dies with its victim: undo the survivor's slot change.
        if victim is reader:
            writer.in_conflict = prior_writer_in
        elif victim is writer:
            reader.out_conflict = prior_reader_out
        return victim

    def check_commit(self, txn) -> bool:
        unsafe = self._is_dangerous(txn)
        if unsafe:
            self.stats["unsafe_at_commit"] += 1
        return unsafe

    def after_commit(self, txn) -> None:
        """Fig 3.10 lines 9-12: committed references become self-references
        so suspended transactions never point at cleaned-up ones."""
        if txn.in_conflict is not None and txn.in_conflict is not txn:
            if txn.in_conflict.is_committed:
                txn.in_conflict = txn
        if txn.out_conflict is not None and txn.out_conflict is not txn:
            if txn.out_conflict.is_committed:
                txn.out_conflict = txn

    # ------------------------------------------------------------ helpers

    def _is_dangerous(self, txn) -> bool:
        """True when ``txn``'s recorded conflicts may form a dangerous
        structure in which the outgoing transaction committed first."""
        if txn.in_conflict is None or txn.out_conflict is None:
            return False
        out_bound = self._out_bound(txn)
        if out_bound is None:
            # Single outgoing reference, not yet committed: it will commit
            # after txn, so it is provably not the first committer.
            return False
        if out_bound > self._in_bound(txn):
            return False
        # The structure is dangerous by commit order; give the pivot's CC
        # policy a veto (e.g. the read-only optimization, which excuses a
        # structure whose read-only T_in took its snapshot before T_out
        # committed).  The precise slot references this tracker keeps are
        # exactly what such excuses need.
        policy = getattr(txn, "policy", None)
        if policy is not None and policy.excuses_unsafe(txn):
            self.stats["excused"] += 1
            return False
        return True

    def _abort_early_victim_enhanced(self, reader, writer) -> Optional[object]:
        """Abort-early for the enhanced tracker: only abort an active
        transaction whose recorded commit order is (or may be) dangerous."""
        candidates = [
            txn
            for txn in (reader, writer)
            if txn.is_active and self._is_dangerous(txn)
        ]
        if not candidates:
            return None
        return self._choose_victim(candidates, reader, writer)

    @staticmethod
    def _out_bound(txn) -> float | None:
        """Earliest possible commit time of the outgoing side, or None when
        the single outgoing reference has provably not committed yet."""
        ref = txn.out_conflict
        if ref is txn:
            return _NEG_INF
        if not ref.is_committed:
            return None
        return ref.commit_ts

    @staticmethod
    def _in_bound(txn) -> float:
        """Latest possible commit time of the incoming side."""
        ref = txn.in_conflict
        if ref is txn or not ref.is_committed:
            return _POS_INF
        return ref.commit_ts

    def _has_in(self, txn) -> bool:
        return txn.in_conflict is not None

    def _has_out(self, txn) -> bool:
        return txn.out_conflict is not None


class SafeSnapshotMonitor:
    """Tracks when a read-only transaction's snapshot becomes *safe* —
    Ports & Grittner's safe-snapshot optimization (§2.4 of *Serializable
    Snapshot Isolation in PostgreSQL*).

    A declared read-only transaction ``T_ro`` can only participate in a
    dangerous structure as ``T_in``: ``T_ro --rw--> pivot --rw--> T_out``
    with ``T_out.commit_ts <= T_ro.read_ts``.  Any such pivot read under
    a snapshot taken no later than ``T_ro``'s (a pivot that began after
    ``T_ro``'s snapshot cannot be concurrent with a ``T_out`` that
    committed before it).  So the monitor watches exactly the read/write
    transactions active at registration whose snapshots are at most
    ``T_ro``'s:

    * when a watched transaction **aborts**, it is simply removed;
    * when one **commits**, its out-conflict slot decides: no outgoing
      rw edge (or an edge to a transaction that cannot have committed
      before ``T_ro``'s snapshot) removes it, anything else — a
      self-reference, a boolean ``True`` from the basic tracker, or an
      edge to an old committed ``T_out`` — marks the snapshot
      permanently *unsafe* (a dangerous structure it can complete now
      exists);
    * when the watch set drains with no unsafe verdict, the snapshot is
      **safe**: ``T_ro`` drops its SIREAD locks immediately, skips all
      further read-side detection, and retains nothing at commit.

    Every transition runs under the engine's tracker latch (the caller's
    context for commit/abort hooks; :meth:`register` takes it itself),
    so the monitor needs no latch of its own.
    """

    __slots__ = ("db", "family", "stats", "_watching", "_watchers")

    def __init__(self, db, family: type, stats=None):
        self.db = db
        #: the policy class whose conflict slots the monitor can read
        #: (the SSI family); other certifying policies are watched too,
        #: but their commits are conservatively treated as dangerous.
        self.family = family
        self.stats = stats if stats is not None else CounterGroup({
            "registered": 0, "safe": 0, "safe_immediate": 0, "unsafe": 0,
        })
        #: ro txn -> set of watched concurrent read/write transactions
        self._watching: dict = {}
        #: watched rw txn -> list of ro txns watching it (reverse index)
        self._watchers: dict = {}

    # --------------------------------------------------------- lifecycle

    def register(self, ro) -> None:
        """Start watching a read-only transaction that just took its
        snapshot.  Called with no engine latch held (from
        ``_assign_snapshot``)."""
        db = self.db
        read_ts = ro.snapshot.read_ts
        with db._txn_latch:
            candidates = [
                txn
                for txn in db._active.values()
                if txn is not ro
                and not txn.read_only
                and txn.read_ts is not None
                and txn.read_ts <= read_ts
                and (isinstance(txn.policy, self.family) or txn.policy.certifies)
            ]
        with db._tracker_latch:
            self.stats["registered"] += 1
            watched = set()
            unsafe = False
            for txn in candidates:
                if txn.is_active:
                    watched.add(txn)
                elif txn.is_committed and self._dangerous_commit(ro, txn):
                    # Committed between collection and here; its slots may
                    # already be munged to self-references, which the
                    # danger test treats conservatively.
                    unsafe = True
            if unsafe:
                self._verdict_unsafe(ro)
                return
            if not watched:
                self.stats["safe_immediate"] += 1
                self._mark_safe(ro)
                return
            ro.snapshot_safe = False
            self._watching[ro] = watched
            for txn in watched:
                self._watchers.setdefault(txn, []).append(ro)

    def on_commit(self, txn) -> None:
        """Tracker-latched, called *before* the enhanced tracker munges
        committed conflict references to self-references."""
        self._discard_registration(txn)
        watchers = self._watchers.pop(txn, None)  # latch-ok: caller holds tracker
        if not watchers:
            return
        dangerous = None  # evaluated lazily, shared across watchers
        for ro in watchers:
            watched = self._watching.get(ro)
            if watched is None:
                continue
            watched.discard(txn)
            if dangerous is None:
                dangerous = self._dangerous_commit(ro, txn)
            if dangerous:
                self._verdict_unsafe(ro)
            elif not watched:
                self._mark_safe(ro)
                del self._watching[ro]  # latch-ok: caller holds tracker

    def on_abort(self, txn) -> None:
        """Tracker-latched: an aborted transaction threatens nobody."""
        self._discard_registration(txn)
        watchers = self._watchers.pop(txn, None)  # latch-ok: caller holds tracker
        if not watchers:
            return
        for ro in watchers:
            watched = self._watching.get(ro)
            if watched is None:
                continue
            watched.discard(txn)
            if not watched:
                self._mark_safe(ro)
                del self._watching[ro]  # latch-ok: caller holds tracker

    # ----------------------------------------------------------- helpers

    def _dangerous_commit(self, ro, rw) -> bool:
        """Can ``rw``'s commit complete a dangerous structure with ``ro``
        as T_in?  Decided from ``rw``'s out-conflict slot."""
        if not isinstance(rw.policy, self.family):
            # A certifying non-SSI transaction (SGT level): its conflict
            # bookkeeping lives elsewhere — assume the worst.
            return True
        ref = rw.out_conflict
        if not ref:
            return False  # no outgoing edge: rw cannot be the pivot
        if ref is True or ref is rw:
            return True  # order unknown (boolean / self-reference)
        if not ref.is_committed:
            # T_out will commit after now > ro.read_ts: never "first".
            return False
        return ref.commit_ts is not None and ref.commit_ts <= ro.read_ts

    def _verdict_unsafe(self, ro) -> None:
        self.stats["unsafe"] += 1
        watched = self._watching.pop(ro, None)  # latch-ok: caller holds tracker
        if watched:
            for txn in watched:
                watchers = self._watchers.get(txn)
                if watchers is not None and ro in watchers:
                    watchers.remove(ro)
                    if not watchers:
                        del self._watchers[txn]  # latch-ok: caller holds tracker
        ro.snapshot_safe = False
        event = ro._safe_event
        if event is not None:
            event.set()

    def _mark_safe(self, ro) -> None:
        """The snapshot can never join a dangerous structure: drop the
        SIREAD state it accumulated and stop all further detection for
        it.  Caller holds the tracker latch (rank 20), so the lock
        manager's latches (50+) nest legally."""
        self.stats["safe"] += 1
        ro.snapshot_safe = True
        self.db.locks.drop_siread_locks(ro)
        event = ro._safe_event
        if event is not None:
            event.set()

    def _discard_registration(self, txn) -> None:
        """A registered read-only transaction retiring (commit or abort)
        stops watching."""
        watched = self._watching.pop(txn, None)  # latch-ok: caller holds tracker
        if watched is None:
            return
        for rw in watched:
            watchers = self._watchers.get(rw)
            if watchers is not None and txn in watchers:
                watchers.remove(txn)
                if not watchers:
                    del self._watchers[rw]  # latch-ok: caller holds tracker


def make_tracker(
    precise: bool = True,
    victim_policy: VictimPolicy | str = "pivot",
) -> ConflictTracker:
    """Build the tracker matching an engine configuration.

    ``precise=True`` selects the enhanced reference-based tracker (the
    InnoDB prototype's configuration); ``False`` the basic boolean one
    (the Berkeley DB prototype's configuration).
    """
    if precise:
        return EnhancedConflictTracker(victim_policy)
    return BasicConflictTracker(victim_policy)
