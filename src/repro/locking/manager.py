"""The lock manager.

A classic FIFO-queued lock manager extended with the paper's requirements:

* a non-blocking ``SIREAD`` mode whose conflicts are *reported* rather than
  enforced (Section 3.2).  The engine's point reads at record granularity
  keep theirs on the record's :class:`~repro.mvcc.version.VersionChain`
  (its ``readers``), not here: the manager only counts them, through the
  owner's ``sireads`` map and :attr:`LockManager.chain_readers`, and
  publishes a tracking writer's EXCLUSIVE grant on the chain passed to
  :meth:`LockManager.acquire`.  Any other SIREAD — a page, a never-written
  key, a key range — is a mode of its owner's lock like any other; a
  re-read of a held point grants nothing and reports nothing;
* SIREAD locks retained after their owner commits, until no concurrent
  transaction remains (Section 3.3): :meth:`LockManager.release_all` with
  ``keep_siread=True`` keeps them, and cleanup's
  :meth:`LockManager.retire_reads` forgets the owner's chain entries and
  walks its read list once;
* SIREAD -> EXCLUSIVE upgrade: an EXCLUSIVE grant, from the queue too,
  drops the owner's SIREAD on the same resource or chain (Section 3.7.3 /
  4.3 item 4); the request still counts as an upgrade and queues at the
  front;
* key-range predicate locks (Figs 3.6/3.7; what Section 2.5.2's gap
  locks protect): one lock head per scan on ``[lo, hi]`` in its read
  mode, SIREAD or S2PL's blocking SHARED.  A reader places its range and
  collects the EXCLUSIVE record holders inside it in one critical
  section (:meth:`LockManager.acquire_range`); an EXCLUSIVE record
  acquire meets the ranges covering its key in its own
  (:meth:`LockManager.acquire`).  Whichever runs second blocks (S2PL)
  or sees the other (SSI/SGT);
* SIREAD escalation (:meth:`LockManager.escalate`): past a lock-table
  budget, an owner's record SIREADs (chain entries too) and pure range
  SIREADs on one table fold into one key range over their span, met by
  writers like any scan's.

Lock acquisition never blocks the calling thread.  When a request must
wait it is enqueued and an :class:`AcquireResult` with ``status=WAIT`` is
returned; engine operations translate that into a
:class:`~repro.errors.LockWaitRequired` control-flow exception which
executors handle.  Acquisition is idempotent: re-requesting a held lock in
the same or weaker mode is a no-op, which is what makes operation retry
after a wait safe.

Performance structure (DESIGN.md, "Lock manager", has the detail): one
re-entrant latch (rank ``lock``) over the whole manager, as in the paper's
prototype (Section 4.4), so each public call is one critical section; an
integer ``mask`` of modes on every lock and :class:`_LockHead`, so
conflict, coverage and detection checks are one AND; grant-ordered dicts
keyed by owner id; and per-owner indexes of locks, SIREADs and waiting
requests, so nothing on the commit/abort path walks the table, and an
owner holding only chain entries commits and retires without the latch.
The sorted EXCLUSIVE-key index range readers bisect exists only for
tables some range has touched.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right, insort
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, NamedTuple

from repro.engine.latches import make_latch
from repro.engine.waits import Completion
from repro.locking.deadlock import find_cycle_through, find_cycles
from repro.locking.modes import LockMode
from repro.obs.registry import CounterGroup
from repro.obs.trace import EventType

class Resource(NamedTuple):
    """A key in the lock table.

    ``kind`` distinguishes record locks (``"rec"``), key ranges
    (``"range"``, ``key`` is the closed ``(lo, hi)`` a scan evaluated,
    ``None`` for an open end) and page locks (``"page"``, used by the
    Berkeley DB-style page-granularity mode).
    """

    kind: str
    table: str
    key: Hashable

    def __repr__(self) -> str:
        return f"{self.kind}:{self.table}[{self.key!r}]"


def record_resource(table: str, key: Hashable) -> Resource:
    return Resource("rec", table, key)


def range_resource(table: str, lo: Hashable | None, hi: Hashable | None) -> Resource:
    return Resource("range", table, (lo, hi))


def page_resource(table: str, page_id: int) -> Resource:
    return Resource("page", table, page_id)


class Lock:
    """A granted lock: one owner's claim on one resource.

    A lock can carry several *modes* at once — e.g. a scan's SIREAD range
    that its owner's own insert also claims (INSERT_INTENTION), or, with
    ``siread_upgrade`` off, a page a transaction read and then wrote
    (SIREAD+EXCLUSIVE).  The modes are
    stored as the integer ``mask`` (OR of the modes' bits) so hot paths
    never hash Enum members; :attr:`modes` derives the familiar set view
    on demand.
    """

    __slots__ = ("owner", "resource", "mask")

    def __init__(
        self,
        owner: Any,  # transaction-like object with a hashable .id
        resource: Resource,
        modes: Iterable[LockMode] = (),
        mask: int = 0,
    ):
        self.owner = owner
        self.resource = resource
        for mode in modes:
            mask |= mode.bit
        self.mask = mask

    def __repr__(self) -> str:
        names = "+".join(sorted(m.value for m in self.modes))
        return f"Lock({self.owner_id}, {self.resource!r}, {names})"

    @property
    def owner_id(self) -> int:
        return self.owner.id

    @property
    def modes(self) -> set[LockMode]:
        """The held modes as a set (convenience view over ``mask``)."""
        return set(_MODES_IN[self.mask])


class RequestState(enum.Enum):
    WAITING = "waiting"
    GRANTED = "granted"
    DENIED = "denied"


class LockRequest(Completion):
    """A pending (or resolved) lock request: the :class:`Completion` a
    lock wait waits for.

    :meth:`_resolve` is its :meth:`~Completion.set`: the first terminal
    transition wins and records GRANTED or DENIED (with the denial's
    error) in the same critical section that fires the subscribers, so a
    request has exactly one terminal state, published before any
    subscriber runs; a concurrent or later attempt (a grant racing a
    timeout cancel) is a no-op.
    """

    __slots__ = ("resource", "mode", "state", "error", "chain")

    def __init__(self, owner: Any, resource: Resource, mode: LockMode,
                 manager: Any = None, chain: Any = None) -> None:
        super().__init__(owner, manager)
        self.resource = resource
        self.mode = mode
        self.state = RequestState.WAITING
        self.error: Exception | None = None
        #: the record's version chain its grant publishes on, if any
        self.chain = chain

    @property
    def resolved(self) -> bool:
        return self.state is not RequestState.WAITING

    def _settle(self, state: RequestState, error: Exception | None = None) -> None:
        self.state = state
        self.error = error

    def _resolve(self, state: RequestState, error: Exception | None = None) -> bool:
        """First terminal transition wins; returns whether this call won."""
        return self.set(state, error)

    def __repr__(self) -> str:
        return (
            f"LockRequest({self.owner.id}, {self.resource!r}, "
            f"{self.mode.value}, {self.state.value})"
        )


class AcquireStatus(enum.Enum):
    GRANTED = "granted"
    WAIT = "wait"


@dataclass(slots=True)
class AcquireResult:
    """Outcome of :meth:`LockManager.acquire`.

    Attributes:
        status: GRANTED or WAIT.
        request: the pending request when ``status == WAIT``.
        detection_conflicts: granted locks held by *other* transactions
            that are interesting to the SSI layer even though they do not
            block — EXCLUSIVE holders seen by a SIREAD request, and SIREAD
            holders seen by an EXCLUSIVE request (Figs 3.4/3.5 line "for
            each conflicting ... lock").  Populated on GRANTED results.
    """

    status: AcquireStatus
    request: LockRequest | None = None
    detection_conflicts: list[Lock] = field(default_factory=list)

    @property
    def granted(self) -> bool:
        return self.status is AcquireStatus.GRANTED


#: Shared empty conflict list — callers only ever iterate it.
_NO_CONFLICTS: list[Lock] = []

#: Preallocated result for the dominant acquire outcome (granted, nothing
#: to report): the hot paths return it instead of building a dataclass
#: instance per call.
_GRANTED_CLEAN = AcquireResult(
    AcquireStatus.GRANTED, detection_conflicts=_NO_CONFLICTS
)


class _LockHead:
    """Per-resource state: granted locks plus the FIFO wait queue.

    ``granted`` maps owner id -> Lock (one lock per owner per resource);
    dict iteration preserves grant order, matching the old list layout.
    ``counts`` holds one grant count per mode (slot ``mode.index``; an
    int each, so no count can carry into another mode's), and ``mask``
    keeps the OR of bits with a non-zero count — so "can this request
    possibly conflict / is anything interesting granted here" is a
    single AND without touching the granted locks.
    ``queue`` stays ``None`` until the first waiter: the vast majority of
    heads never see contention and skip the deque allocation entirely.
    """

    __slots__ = ("granted", "queue", "counts", "mask")

    def __init__(self):
        self.granted: dict[Hashable, Lock] = {}
        self.queue: deque[LockRequest] | None = None
        self.counts: list[int] = [0] * _N_MODES
        self.mask: int = 0

    def mode_count(self, mode: LockMode) -> int:
        """Granted locks carrying ``mode`` (test/introspection helper)."""
        return self.counts[mode.index]

    def empty(self) -> bool:
        return not self.granted and not self.queue


class _Fold:
    """What one escalated range stands for: ``weight``, the sentinels it
    replaced (itself included, absorbed folds' weights accumulated), and
    ``chains``, the chains whose entries it folded — their ``readers``
    keep the owner's id while the range's SIREAD is granted."""

    __slots__ = ("weight", "chains")

    def __init__(self) -> None:
        self.weight = 1
        self.chains: list = []


#: What a held mode subsumes: re-requesting a covered mode is a no-op.
#: EXCLUSIVE covers everything (the Section 3.7.3 upgrade rationale:
#: conflicts with the new version replace SIREAD detection).  Note that
#: INSERT_INTENTION does NOT cover SIREAD — a scan's range SIREAD must
#: survive its owner's own writer claim on the same range.
_COVERS = {
    LockMode.EXCLUSIVE: {
        LockMode.EXCLUSIVE,
        LockMode.SHARED,
        LockMode.SIREAD,
        LockMode.INSERT_INTENTION,
    },
    LockMode.SHARED: {LockMode.SHARED},
    LockMode.INSERT_INTENTION: {LockMode.INSERT_INTENTION},
    LockMode.SIREAD: {LockMode.SIREAD},
}

# Fold the coverage table and the SSI detection pairs into per-mode masks
# (attached to the enum members, next to ``bit``/``incompat_mask`` from
# repro.locking.modes).  ``covered_by_mask``: bits of held modes that make
# re-requesting this mode a no-op.  ``detect_mask``: bits of granted modes
# an acquire of this mode must report as rw-dependency signals — EXCLUSIVE
# and INSERT_INTENTION holders for a SIREAD request, SIREAD holders for an
# EXCLUSIVE/INSERT_INTENTION request (Figs 3.4/3.5), nothing for SHARED.
for _mode in LockMode:
    _mode.covered_by_mask = 0
    for _held, _covered in _COVERS.items():
        if _mode in _covered:
            _mode.covered_by_mask |= _held.bit

LockMode.SIREAD.detect_mask = LockMode.EXCLUSIVE.bit | LockMode.INSERT_INTENTION.bit
LockMode.EXCLUSIVE.detect_mask = LockMode.SIREAD.bit
LockMode.INSERT_INTENTION.detect_mask = LockMode.SIREAD.bit
LockMode.SHARED.detect_mask = 0

_SIREAD_BIT = LockMode.SIREAD.bit
_EXCLUSIVE_BIT = LockMode.EXCLUSIVE.bit
_SHARED_BIT = LockMode.SHARED.bit

_N_MODES = len(LockMode)

#: mask -> the modes whose bits it contains (decode table for the rare
#: paths that need to enumerate a lock's modes).
_MODES_IN = [
    tuple(m for m in LockMode if _mask & m.bit) for _mask in range(1 << len(LockMode))
]


def _covers(bounds: tuple, key: Hashable) -> bool:
    """Does the closed range ``bounds`` (``None`` = open end) cover
    ``key``?  Bounds the key does not order against (a scan that failed
    in the tree walk, a fold over mixed key types) count as covering it:
    a conservative edge rather than a failed write."""
    lo, hi = bounds
    try:
        return not ((lo is not None and key < lo) or (hi is not None and hi < key))
    except TypeError:
        return True


class LockManager:
    """Lock table with FIFO queuing, upgrades and deadlock detection.

    Thread-safe under **one** re-entrant latch (rank ``lock``), the
    paper's Section 4.4 arrangement: ``_latch`` guards the resource->head
    map and every field of its heads (wait queues included), the
    per-owner indexes (``_by_owner``, ``_reads``, ``_waiting``), the
    range and EXCLUSIVE-key indexes, the granted-lock counter, the
    escalation folds and the stats group.  Every public method is
    exactly one critical section, so a release and an escalation can
    never interleave; private helpers run with the latch already held.
    The handful of latch-free reads that remain are single GIL-atomic
    dict/int probes, each documented where it happens with the reason a
    stale answer is safe.  Chain entries are the exception by design:
    their owner's thread adds them with no latch (the engine's point
    read), and :attr:`chain_readers` and each owner's ``sireads`` change
    only through single GIL-atomic dict operations.

    Request callbacks and the deadlock handler run *under* the latch on
    the resolving thread; they may re-enter the manager (the latch is
    re-entrant) and may take higher-ranked latches only.

    Args:
        deadlock_handler: called with (cycle, requesting LockRequest) when
            immediate detection finds a cycle; must return the victim
            transaction object.  ``None`` disables immediate detection —
            the caller must then run :meth:`find_deadlock_victims`
            periodically (this is the Berkeley DB db_perf configuration
            whose detection latency shapes Figure 6.2).
        siread_upgrade: enable the Section 3.7.3 optimisation.
    """

    def __init__(
        self,
        deadlock_handler: Callable[[list[Any], LockRequest], Any] | None = None,
        siread_upgrade: bool = True,
    ):
        self._latch = make_latch("lock")
        self._heads: dict[Resource, _LockHead] = {}
        self._by_owner: dict[Hashable, dict[Resource, Lock]] = defaultdict(dict)
        #: per-owner index of WAITING requests — the cancel_waits path.
        self._waiting: dict[Hashable, set[LockRequest]] = {}
        #: owner id -> every resource it holds SIREAD on, in grant order.
        #: An owner is present iff it holds one: O(1) holds_any_siread,
        #: consulted on every SSI commit, and cleanup's one walk.
        self._reads: dict[Hashable, dict[Resource, None]] = {}
        #: owner id -> owner whose ``sireads`` (chain -> (table, key)) hold
        #: chain entries; the engine's read path adds it at its first one
        self.chain_readers: dict[Hashable, Any] = {}
        #: granted head locks (chain entries are counted from chain_readers)
        self._granted_count = 0
        #: (owner_id, folded range) -> its :class:`_Fold`.  An entry
        #: exists for every folded range still granted; it leaves with the
        #: range's SIREAD (:meth:`_drop_fold`).
        self._escalated_weights: dict[tuple[Hashable, Resource], _Fold] = {}
        #: table -> {range resource: its head} for every key-range head,
        #: whatever modes it holds (the same heads live in ``_heads``) —
        #: what an EXCLUSIVE record acquire checks.  An emptied per-table
        #: dict stays, so the "any ranges here?" probe is one ``dict.get``.
        self._ranges: dict[str, dict[Resource, _LockHead]] = {}
        #: table -> sorted keys of its EXCLUSIVE-held record locks — what
        #: a range reader bisects.  Kept only for tables some range has
        #: touched (sticky; back-filled from the heads on first use), so
        #: writes to tables nobody scans maintain nothing.
        self._exclusive_keys: dict[str, list] = {}
        self.deadlock_handler = deadlock_handler
        self.siread_upgrade = siread_upgrade
        #: cumulative counters for the overhead benchmarks (registry-adoptable)
        self.stats = CounterGroup(
            {
                "acquires": 0,
                "waits": 0,
                "upgrades": 0,
                "siread_dropped": 0,
                "escalations": 0,
                "escalated_records": 0,
                "lock_callback_errors": 0,
            }
        )
        #: event trace, installed by Database.enable_tracing (None = off)
        self.trace = None

    # ------------------------------------------------------------------ API

    def acquire(
        self, owner: Any, resource: Resource, mode: LockMode,
        key: Hashable | None = None, chain: Any = None,
    ) -> AcquireResult:
        """Request ``mode`` on ``resource`` for ``owner``.

        Never blocks the calling thread.  Returns GRANTED (possibly with
        detection conflicts) or WAIT carrying the enqueued
        :class:`LockRequest`, a :class:`Completion` the caller waits for
        (a thread parks on it, a session or the simulator subscribes its
        resumption) before it retries the operation.  Raises
        nothing: deadlock resolution happens through the injected handler
        which may doom a transaction via its own side effects.
        :meth:`acquire_nowait` is the same call under its
        completion-style name.

        A SIREAD on a record or page never waits and is always granted,
        reporting the resource's EXCLUSIVE holders (Fig 3.4); a re-read
        grants and reports nothing, not even an acquire.  ``key`` marks it
        a point read of that record key (for a page resource too): then a
        key range of the owner's own covering ``key`` stands in for it.

        An EXCLUSIVE request reports the resource's SIREAD holders (Fig
        3.5); its grant drops its owner's own under ``siread_upgrade``.
        ``chain`` is the record's version chain: a grant, here or from the
        queue, publishes the owner as its ``writer`` and drops the owner's
        entry there, and an owner with an entry there is an upgrader.  An
        EXCLUSIVE record request also meets the key ranges covering its
        key, in the same critical section.  Another owner's
        SHARED range makes it wait, queued as an INSERT_INTENTION request
        on that range; every other owner's SIREAD range joins the
        detection conflicts — the writer half of phantom detection.
        """
        owner_id = owner.id
        point_read = mode is LockMode.SIREAD and resource.kind != "range"
        with self._latch:
            owner_locks = self._by_owner.get(owner_id)
            held = owner_locks.get(resource) if owner_locks else None
            if point_read and held is not None and held.mask & _SIREAD_BIT:
                return _GRANTED_CLEAN  # a re-read: its writers met the lock
            self.stats["acquires"] += 1
            if point_read and held is not None and held.mask & _EXCLUSIVE_BIT:
                return _GRANTED_CLEAN
            ranges = (
                self._ranges.get(resource.table)
                if mode is LockMode.EXCLUSIVE and resource.kind == "rec"
                else None
            )
            if ranges:
                # Checked on a covered re-acquire too: a record granted by
                # _promote never met the ranges placed while it queued.
                blocking = self._shared_range_over(ranges, owner_id, resource.key)
                if blocking is not None:
                    return self._enqueue_wait(
                        owner, blocking, LockMode.INSERT_INTENTION,
                        self._heads[blocking],
                        bool(owner_locks) and blocking in owner_locks,
                    )
            head = self._heads.get(resource)
            if point_read and key is not None and self._own_range_over(
                self._ranges.get(resource.table) or {}, owner_id, key, _SIREAD_BIT
            ):
                # Covered by the owner's own range: no lock of its own.
                if head is None:
                    return _GRANTED_CLEAN
            else:
                if head is None:
                    head = self._heads[resource] = _LockHead()
                # A covered request (idempotent re-acquire) grants nothing
                # but still reports detection conflicts, for retry
                # correctness.
                if held is None or not held.mask & mode.covered_by_mask:
                    # A SIREAD never blocks and never waits (Section 3.2).
                    if mode is not LockMode.SIREAD:
                        upgrading = held is not None or (
                            chain is not None and chain in owner.sireads
                        )
                        if self._blockers(head, owner, mode, upgrading=upgrading):
                            return self._enqueue_wait(
                                owner, resource, mode, head, upgrading, chain
                            )
                        if upgrading:
                            self.stats["upgrades"] += 1
                    self._grant(head, owner, resource, mode, held, chain)
            conflicts = self._detection_conflicts(head, owner, mode)
            if ranges:
                met = self._range_readers(ranges, owner_id, resource.key)
                if met:
                    conflicts = conflicts + met
        if not conflicts:
            return _GRANTED_CLEAN
        return AcquireResult(AcquireStatus.GRANTED, detection_conflicts=conflicts)

    acquire_nowait = acquire

    def acquire_read_batch(
        self, owner: Any, resources: list[Resource], mode: LockMode
    ) -> tuple[list[Lock], list[Resource]]:
        """Grant a read mode (SIREAD or SHARED) on many resources in one
        critical section.  No engine path calls it (every scan places one
        key range); it is kept only because the benchmark's layer tracer
        targets it, like :meth:`probe_detection_batch`.

        Returns ``(conflicts, deferred)``: the combined detection
        conflicts (for the caller to dispatch as rw edges) and the
        resources left, in order, to the caller's normal one-at-a-time
        path, which counts them.  SIREAD defers nothing.  SHARED settles
        the leading resources the owner already covers and defers the
        rest: granting a later resource while an earlier one must wait
        would invert the scan's lock order against concurrent writers.
        """
        conflicts: list[Lock] = []
        with self._latch:
            if mode is LockMode.SIREAD:
                for resource in resources:
                    conflicts.extend(self.acquire(owner, resource, mode).detection_conflicts)
                return conflicts, []
            owner_locks = self._by_owner.get(owner.id) or {}
            settled = 0
            for resource in resources:
                held = owner_locks.get(resource)
                if held is None or not held.mask & mode.covered_by_mask:
                    break
                settled += 1
            self.stats["acquires"] += settled
        return conflicts, list(resources[settled:])

    # ------------------------------------------------------- key-range locks

    def acquire_range(
        self, owner: Any, table: str, lo: Hashable | None, hi: Hashable | None,
        mode: LockMode = LockMode.SIREAD,
    ) -> list[Lock]:
        """Place ``mode`` (SIREAD or SHARED) on the key range ``[lo, hi]``
        of ``table`` (an open end is ``None``) and return the EXCLUSIVE
        record locks other owners hold inside it: the writers a SIREAD
        reader reports and a SHARED reader waits for.

        One critical section: a writer granted before it is returned
        here, a writer granted after it meets the range in
        :meth:`acquire`.  A SIREAD range ``owner`` already holds returns
        nothing, because every writer granted since it was placed met it
        — unless escalation placed it: the writers inside a fold that
        were granted before it met only the sentinels it absorbed.  A
        SHARED reader is not handed the writers queued behind one of its
        own ranges: they already serialize after it, and waiting for them
        would deadlock.
        """
        resource = range_resource(table, lo, hi)
        owner_id = owner.id
        siread = mode is LockMode.SIREAD
        with self._latch:
            self.stats["acquires"] += 1
            owner_locks = self._by_owner.get(owner_id)
            held = owner_locks.get(resource) if owner_locks else None
            if (
                siread and held is not None and held.mask & _SIREAD_BIT
                and (owner_id, resource) not in self._escalated_weights
            ):
                return _NO_CONFLICTS
            self._place_range(owner, resource, mode, held)
            keys = self._exclusive_keys.get(table)
            if keys is None:
                keys = self._exclusive_keys[table] = sorted(
                    locked.key
                    for locked, head in self._heads.items()
                    if locked.kind == "rec" and locked.table == table
                    and head.mask & _EXCLUSIVE_BIT
                )
            start = 0 if lo is None else bisect_left(keys, lo)
            stop = len(keys) if hi is None else bisect_right(keys, hi)
            heads = self._heads
            conflicts: list[Lock] = []
            for key in keys[start:stop]:
                head = heads[record_resource(table, key)]
                for holder_id, lock in head.granted.items():
                    if (
                        holder_id != owner_id and lock.mask & _EXCLUSIVE_BIT
                        and (siread or not self._queued_behind(holder_id, owner_id))
                    ):
                        conflicts.append(lock)
            return conflicts

    def release_range(
        self, owner: Any, table: str, lo: Hashable | None, hi: Hashable | None
    ) -> None:
        """Withdraw ``owner``'s range ``[lo, hi]`` and promote the writers
        queued on it: an S2PL scan that must wait for an in-flight writer
        does not hold its range meanwhile."""
        with self._latch:
            lock = self._by_owner[owner.id][range_resource(table, lo, hi)]
            self._drop_range(owner.id, lock)

    def probe_ranges(self, owner: Any, table: str, key: Hashable) -> list[Lock]:
        """The SIREAD range locks covering ``key``, one per other owner:
        the readers an EXCLUSIVE acquire of ``key`` reports."""
        if not self._ranges.get(table):
            return _NO_CONFLICTS
        with self._latch:
            return self._range_readers(self._ranges[table], owner.id, key)

    def holds_range_over(
        self, owner: Any, table: str, key: Hashable,
        mode: LockMode = LockMode.SIREAD,
    ) -> bool:
        """Does a key range ``owner`` holds in ``mode`` cover ``key``?  A
        point read it covers needs no record lock: a writer of ``key``
        meets the range in :meth:`acquire` (which runs this check itself
        for a point SIREAD).

        Latch-free exit (two GIL-atomic probes) when the owner holds
        nothing or the table has no range: only the owner's own thread
        grants it a read lock, and a range escalation places for it only
        covers keys it already holds SIREADs on."""
        owner_id = owner.id
        if owner_id not in self._by_owner or not self._ranges.get(table):
            return False
        with self._latch:
            return self._own_range_over(self._ranges[table], owner_id, key, mode.bit)

    @staticmethod
    def _own_range_over(
        ranges: dict[Resource, _LockHead], owner_id: Hashable, key: Hashable,
        bit: int,
    ) -> bool:
        """Does a range ``owner_id`` holds with mode ``bit`` cover ``key``?"""
        for resource, head in ranges.items():
            lock = head.granted.get(owner_id)
            if lock is not None and lock.mask & bit and _covers(resource.key, key):
                return True
        return False

    @staticmethod
    def _shared_range_over(
        ranges: dict[Resource, _LockHead], owner_id: Hashable, key: Hashable
    ) -> Resource | None:
        """A range covering ``key`` another owner holds SHARED."""
        for resource, head in ranges.items():
            if head.mask & _SHARED_BIT and _covers(resource.key, key):
                for holder_id, lock in head.granted.items():
                    if holder_id != owner_id and lock.mask & _SHARED_BIT:
                        return resource
        return None

    @staticmethod
    def _range_readers(
        ranges: dict[Resource, _LockHead], owner_id: Hashable, key: Hashable
    ) -> list[Lock]:
        """One SIREAD range lock per other owner covering ``key``."""
        found: dict[Hashable, Lock] = {}
        for resource, head in ranges.items():
            if head.mask & _SIREAD_BIT and _covers(resource.key, key):
                for holder_id, lock in head.granted.items():
                    if (
                        holder_id != owner_id and lock.mask & _SIREAD_BIT
                        and holder_id not in found
                    ):
                        found[holder_id] = lock
        return list(found.values())

    def _queued_behind(self, waiter_id: Hashable, owner_id: Hashable) -> bool:
        """Is ``waiter_id`` queued on a range ``owner_id`` holds?"""
        heads = self._heads
        return any(
            request.resource.kind == "range"
            and owner_id in heads[request.resource].granted
            for request in self._waiting.get(waiter_id, ())
        )

    def _place_range(
        self, owner: Any, resource: Resource, mode: LockMode, held: Lock | None
    ) -> None:
        """Grant ``mode`` on a range, creating and indexing its head on
        first use.  A reader never queues for its range — it waits through
        the records of the writers inside it — so writers already queued
        here now wait for this owner too (:meth:`_successors` reads that
        off the head)."""
        head = self._heads.get(resource)
        if head is None:
            head = self._heads[resource] = _LockHead()
            self._ranges.setdefault(resource.table, {})[resource] = head
        self._grant(head, owner, resource, mode, held)

    def _drop_range(self, owner_id: Hashable, lock: Lock) -> None:
        """Withdraw one range lock; promote the writers queued on it."""
        resource = lock.resource
        head = self._heads[resource]
        self._detach_lock(head, lock)
        self._forget_locks(owner_id, [lock])
        if head.queue:
            self._promote(resource)

    def _index_exclusive(self, resource: Resource, held: bool) -> None:
        """Keep a range-touched table's sorted EXCLUSIVE key index in
        step with one record lock gaining (``held``) or losing its
        EXCLUSIVE mode (caller holds the latch).  EXCLUSIVE excludes
        EXCLUSIVE, so a key is in the index at most once."""
        keys = self._exclusive_keys.get(resource.table)
        if keys is None or resource.kind != "rec":
            return
        if held:
            insort(keys, resource.key)
        else:
            del keys[bisect_left(keys, resource.key)]

    def _enqueue_wait(
        self,
        owner: Any,
        resource: Resource,
        mode: LockMode,
        head: _LockHead,
        upgrade: bool,
        chain: Any = None,
    ) -> AcquireResult:
        """Queue a blocked request (caller holds the latch).

        Upgrades — the owner already holds a lock here or an entry on the
        record's chain — queue at the front (standard treatment) so an
        upgrader is not starved behind later plain requests."""
        owner_id = owner.id
        request = LockRequest(owner, resource, mode, self, chain)
        if head.queue is None:
            head.queue = deque()
        if upgrade:
            head.queue.appendleft(request)
            self.stats["upgrades"] += 1
        else:
            head.queue.append(request)
        pending = self._waiting.get(owner_id)
        if pending is None:
            pending = self._waiting[owner_id] = set()
        pending.add(request)
        self.stats["waits"] += 1
        if self.trace is not None:
            self.trace.emit(
                EventType.LOCK_WAIT, owner_id,
                resource=repr(resource), mode=mode.value,
            )
        if self.deadlock_handler is not None:
            self._resolve_deadlocks(request)
        # A request resolved during deadlock resolution also travels the
        # WAIT path: the caller sees it denied (and surfaces the error) or
        # granted (and acquires again — a record that waited on a key
        # range still owes the record itself).
        return AcquireResult(AcquireStatus.WAIT, request=request)

    def release_all(self, owner: Any, keep_siread: bool = False) -> None:
        """Release every lock held by ``owner`` (commit/abort time).

        With ``keep_siread=True`` (Serializable SI commit, Fig 3.2 line 9)
        the SIREADs stay: chain entries are not touched at all, and a
        lock's SIREAD mode is kept while its other modes go.  They are
        dropped later by :meth:`drop_siread_locks` once no concurrent
        transaction remains.  Without it (abort) they go too, the chain
        entries by forgetting: an aborted owner's ids are dead.

        An owner with nothing to release exits with no latch at all — at
        a retaining commit, that is an owner holding only chain entries.
        The membership probes are GIL-atomic, and a stale "absent" cannot
        hide a lock: nothing is ever granted to an owner that is in none
        of the indexes — escalation only folds held SIREADs, and
        :meth:`_promote` indexes a waiter's grant *before* it leaves
        ``_waiting``.
        """
        owner_id = owner.id
        if not keep_siread and getattr(owner, "sireads", None):
            self._leave_chains(owner, unlink=False)
        if owner_id not in self._by_owner and owner_id not in self._waiting:
            return
        with self._latch:
            locks = self._by_owner.get(owner_id)
            if locks:
                heads = self._heads
                removed: list[Lock] = []
                promote: list[Resource] = []
                for resource, lock in locks.items():
                    head = heads[resource]
                    if keep_siread and lock.mask & _SIREAD_BIT:
                        if lock.mask == _SIREAD_BIT:
                            continue
                        # Shed the blocking modes, retain the sentinel.
                        for mode in _MODES_IN[lock.mask & ~_SIREAD_BIT]:
                            self._discard_mode(head, lock, mode)
                    else:
                        self._detach_lock(head, lock)
                        removed.append(lock)
                    if head.queue:
                        promote.append(resource)
                self._forget_locks(owner_id, removed)
                for resource in promote:
                    self._promote(resource)
            if owner_id in self._waiting:
                self.cancel_waits(owner)

    def retain_all_reads(self, owner: Any) -> bool:
        """Would ``release_all(owner, keep_siread=True)`` keep every lock
        the owner holds?  Then only its pending waits are cancelled here
        and True is returned; False when it holds a lock without SIREAD
        (e.g. a SHARED-read retaining policy).  No engine path calls it;
        the benchmark's layer tracer targets it."""
        owner_id = owner.id
        with self._latch:
            held = self._by_owner.get(owner_id)
            if held is not None and any(
                not lock.mask & _SIREAD_BIT for lock in held.values()
            ):
                return False
            if owner_id in self._waiting:
                self.cancel_waits(owner)
        return True

    def retire_reads(self, owners: Iterable[Any]) -> None:
        """Cleanup's drop of the retained SIREADs of transactions leaving
        the registry (Section 3.3).  Their chain entries are forgotten,
        not unlinked — an unregistered id on a chain is dead, and the
        next writer there prunes it — so only an owner holding SIREAD
        locks (a range, a never-written key) takes the latch."""
        forgotten = 0
        for owner in owners:
            forgotten += self._leave_chains(owner, unlink=False)
            if owner.id in self._reads:
                self.drop_siread_locks(owner)
        if forgotten:
            self.stats["siread_dropped"] += forgotten

    def drop_siread_locks(self, owner: Any) -> int:
        """Remove an owner's SIREADs (a safe snapshot's reader, a test):
        its chain entries, unlinked from their chains, and one walk of its
        read list.  The weighted return value counts a folded range as
        the sentinels it replaced.  An owner absent from ``_reads`` takes
        no latch (one GIL-atomic probe, safe for the reason given in
        :meth:`release_all`: no path grants to an owner holding nothing).
        """
        owner_id = owner.id
        points = self._leave_chains(owner, unlink=True)
        if owner_id not in self._reads:
            if points:
                self.stats["siread_dropped"] += points
            return points
        with self._latch:
            reads = self._reads.pop(owner_id, None) or ()
            removed: list[Lock] = []
            shed = 0
            heads = self._heads
            locks = self._by_owner[owner_id]
            for resource in reads:
                lock = locks[resource]
                if lock.mask == _SIREAD_BIT:
                    self._detach_lock(heads[resource], lock)
                    removed.append(lock)
                else:
                    shed += self._shed_siread(heads[resource], lock)
            dropped = points + len(removed) + shed
            # The surplus is the extra sentinels folded ranges stood for.
            return dropped + self._forget_locks(
                owner_id, removed, dropped_stat=dropped
            )

    def _leave_chains(self, owner: Any, unlink: bool) -> int:
        """Take every chain entry of ``owner`` out of its count, and with
        ``unlink`` off the chains too; returns how many there were."""
        sireads = getattr(owner, "sireads", None)
        if not sireads:
            return 0
        points = len(sireads)
        if unlink:
            for chain in list(sireads):
                chain.readers.pop(owner.id, None)
        sireads.clear()
        self.chain_readers.pop(owner.id, None)
        return points

    def _detach_lock(self, head: _LockHead, lock: Lock) -> None:
        """Head-side removal of a granted lock (caller holds the latch).
        The per-owner bookkeeping is settled separately, in one batch,
        via :meth:`_forget_locks`."""
        del head.granted[lock.owner.id]
        if lock.mask & _EXCLUSIVE_BIT and self._exclusive_keys:
            self._index_exclusive(lock.resource, held=False)
        counts = head.counts
        for mode in _MODES_IN[lock.mask]:
            counts[mode.index] -= 1
            if not counts[mode.index]:
                head.mask &= ~mode.bit
        if head.empty():
            self._drop_head(lock.resource)

    def _drop_head(self, resource: Resource) -> None:
        """Reclaim an empty head, from the range index too."""
        self._heads.pop(resource, None)
        if resource.kind == "range":
            self._ranges[resource.table].pop(resource, None)

    def _forget_locks(
        self, owner_id: Hashable, removed: list[Lock], dropped_stat: int = 0
    ) -> int:
        """Settle the per-owner indexes for a batch of detached locks
        (caller holds the latch); ``dropped_stat`` is the number of
        sentinels being counted into ``siread_dropped``.

        A folded range counts as the sentinels it replaced: its fold is
        dropped here, and when the removal is being counted as a drop the
        surplus (weight - 1 per coarse lock) joins ``siread_dropped`` so
        obs snapshots stay comparable before and after escalation.
        Returns the surplus for callers that report weighted totals."""
        surplus = 0
        if removed:
            self._granted_count -= len(removed)
            owner_locks = self._by_owner[owner_id]
            folds = self._escalated_weights
            reads = self._reads.get(owner_id)
            for lock in removed:
                if reads is not None and lock.mask & _SIREAD_BIT:
                    del reads[lock.resource]
                if folds:
                    surplus += self._drop_fold(owner_id, lock.resource) - 1
                del owner_locks[lock.resource]
            if not owner_locks:
                del self._by_owner[owner_id]
            if reads is not None and not reads:
                del self._reads[owner_id]
        if dropped_stat:
            self.stats["siread_dropped"] += dropped_stat + surplus
        return surplus

    # ----------------------------------------------------- SIREAD escalation

    def escalate(self, budget: int | None) -> None:
        """Bring the lock table back under ``budget`` granted locks by
        folding SIREADs into key ranges (``None`` = no budget).

        Victims are the busiest SIREAD holders (ties by owner id).  A
        victim's record SIREADs — chain entries and locks — and pure
        range SIREADs on one table fold into one range over their span
        (:meth:`_fold`); a record the victim also holds another mode on
        belongs to an active writer and stays put, a page SIREAD is never
        folded, and a lone sentinel is already as coarse as its fold.
        Writers meet the fold in :meth:`acquire` like any scan's range,
        and a range covers keys no leaf holds yet, so a leaf split owes it
        nothing.  Only pure SIREADs fold: a SHARED range or a writer's
        INSERT_INTENTION claim never stands in for one.

        Soundness: the whole escalation is one critical section, so a
        writer sees the fine locks or their fold, never neither, and a
        folded chain entry leaves its id on the chain for a writer that
        read the readers before the fold — until the range's SIREAD goes,
        which takes the id off with it.  The fold covers every key they
        covered: escalation can add false-positive rw edges, never lose one."""
        if budget is None or self.table_size() <= budget:
            return
        with self._latch:
            chained = dict(self.chain_readers)
            counts = {owner_id: len(reads) for owner_id, reads in self._reads.items()}
            for owner_id, owner in chained.items():
                counts[owner_id] = counts.get(owner_id, 0) + len(owner.sireads)
            for owner_id, _count in sorted(
                counts.items(), key=lambda item: (-item[1], str(item[0]))
            ):
                locks = self._by_owner.get(owner_id, {})
                by_table: dict[str, list] = {}
                for resource in self._reads.get(owner_id, ()):
                    if resource.kind != "page" and locks[resource].mask == _SIREAD_BIT:
                        by_table.setdefault(resource.table, []).append(resource)
                owner = chained.get(owner_id)
                if owner is not None:
                    for chain, (table, key) in list(owner.sireads.items()):
                        if record_resource(table, key) not in locks:
                            by_table.setdefault(table, []).append((chain, key))
                for table, items in by_table.items():
                    if len(items) > 1:
                        self._fold(owner_id, table, items, owner)
                    if self.table_size() <= budget:
                        return

    def _fold(
        self, owner_id: Hashable, table: str, items: list, owner: Any
    ) -> None:
        """Replace one owner's pure SIREADs on ``table`` — ``items``: lock
        resources and ``(chain, key)`` chain entries of ``owner`` — with
        one SIREAD on the range ``[min lo, max hi]`` they covered (a record
        covers its key; an open end stays ``None``; bounds that do not
        order against each other fold to the whole table).  They are
        *folded*, not dropped: the range's :class:`_Fold` carries their
        count and chains, absorbed folds' included, to whichever path
        finally removes it."""
        resources = [item for item in items if isinstance(item, Resource)]
        entries = [item[0] for item in items if not isinstance(item, Resource)]
        spans = [
            item.key if isinstance(item, Resource) and item.kind == "range"
            else (item[-1], item[-1])  # a record's key, or a chain entry's
            for item in items
        ]
        los = [lo for lo, _hi in spans]
        his = [hi for _lo, hi in spans]
        try:
            lo = None if None in los else min(los)
            hi = None if None in his else max(his)
        except TypeError:
            lo = hi = None
        target = range_resource(table, lo, hi)
        locks = self._by_owner.get(owner_id, {})
        if resources:
            owner = locks[resources[0]].owner
        fold = self._escalated_weights.get((owner_id, target))
        if fold is None:
            fold = self._escalated_weights[(owner_id, target)] = _Fold()
        self._place_range(owner, target, LockMode.SIREAD, locks.get(target))
        removed = [locks[resource] for resource in resources if resource != target]
        # The entries' ids stay on their chains while the range is held,
        # and so do those of every fold it absorbs.
        fold.chains += entries
        for lock in removed:
            absorbed = self._escalated_weights.pop((owner_id, lock.resource), None)
            if absorbed is not None:
                fold.chains += absorbed.chains
                fold.weight += absorbed.weight - 1
            self._detach_lock(self._heads[lock.resource], lock)
        self._forget_locks(owner_id, removed)
        if entries:
            for chain in entries:
                owner.sireads.pop(chain, None)
            if not owner.sireads:
                self.chain_readers.pop(owner_id, None)
        folded = len(removed) + len(entries)
        fold.weight += folded
        self.stats["escalations"] += 1
        self.stats["escalated_records"] += folded

    def probe_detection(
        self, owner: Any, resource: Resource, mode: LockMode
    ) -> list[Lock]:
        """Detection conflicts on ``resource`` without acquiring
        anything.  No engine path calls it (a point SIREAD covered by its
        reader's own range is settled inside :meth:`acquire`); it is kept
        only because the benchmark's layer tracer targets it."""
        with self._latch:
            return self._probe(owner, resource, mode)

    def probe_detection_batch(
        self, owner: Any, resources: list[Resource], mode: LockMode
    ) -> list[Lock]:
        """Batched :meth:`probe_detection`: many resources, one critical
        section."""
        conflicts: list[Lock] = []
        with self._latch:
            for resource in resources:
                conflicts.extend(self._probe(owner, resource, mode))
        return conflicts

    def _probe(self, owner: Any, resource: Resource, mode: LockMode) -> list[Lock]:
        head = self._heads.get(resource)
        if head is None:
            return _NO_CONFLICTS
        return self._detection_conflicts(head, owner, mode)

    def siread_lock_count(self) -> int:
        """Granted SIREADs, across all owners (obs gauge): chain entries
        plus SIREAD locks."""
        with self._latch:
            return sum(len(reads) for reads in self._reads.values()) + self._chain_count()

    def _chain_count(self) -> int:
        """Live chain entries: those of the owners still registered."""
        return sum(len(owner.sireads) for owner in list(self.chain_readers.values()))

    def escalated_lock_count(self) -> int:
        """Folded ranges currently granted (obs gauge; one atomic
        ``len``)."""
        return len(self._escalated_weights)

    def cancel_request(self, request: LockRequest, error: Exception | None = None) -> bool:
        """Remove one waiting request (lock-wait timeout path).

        Returns True if the request was still waiting and has now been
        denied; False if it had already resolved.
        """
        if request.state is not RequestState.WAITING:
            return False  # terminal states never revert: a stale read is final
        resource = request.resource
        with self._latch:
            head = self._heads.get(resource)
            if head is None or not head.queue or request not in head.queue:
                return False
            head.queue.remove(request)
            self._waiting_discard(request)
            # Queue membership implies the request is still WAITING, but
            # the terminal transition itself is the arbiter: report
            # cancellation only if this call won it.
            cancelled = request._resolve(RequestState.DENIED, error)
            if cancelled and self.trace is not None:
                self.trace.emit(
                    EventType.LOCK_DENY, request.owner.id,
                    resource=repr(resource), mode=request.mode.value,
                    error=type(error).__name__ if error else None,
                )
            self._promote(resource)
            return cancelled

    def cancel_waits(self, owner: Any, error: Exception | None = None) -> None:
        """Remove any waiting requests of ``owner`` (abort/doom path).

        Each is DENIED with ``error`` (a doom's error, recorded on the
        request for inspection; the executor learns of the doom when it
        retries the operation).  O(requests owned) via the per-owner
        waiting index — this runs on *every* commit and abort, so it must
        not walk the table.
        """
        with self._latch:
            pending = self._waiting.pop(owner.id, None)
            if pending:
                # Dequeue all of the owner's requests before promoting
                # anything, or a promotion could grant one of them.
                touched: dict[Resource, None] = {}
                for request in pending:
                    touched[request.resource] = None
                    self._heads[request.resource].queue.remove(request)
                    request._resolve(RequestState.DENIED, error)
                    if self.trace is not None:
                        self.trace.emit(
                            EventType.LOCK_DENY, request.owner.id,
                            resource=repr(request.resource),
                            mode=request.mode.value,
                            error=type(error).__name__ if error else None,
                        )
                for resource in touched:
                    self._promote(resource)

    # --------------------------------------------------------------- queries

    def locks_on(self, resource: Resource) -> list[Lock]:
        """The granted locks on ``resource``, one per owner (chain entries
        live on the chain: ``chain.readers``)."""
        with self._latch:
            head = self._heads.get(resource)
            return list(head.granted.values()) if head else []

    def locks_held_by(self, owner: Any) -> list[Lock]:
        """The locks ``owner`` holds, one per resource; a chain entry
        shows as a SIREAD :class:`Lock` on its record, merged with the
        owner's lock there if it has one."""
        with self._latch:
            held = dict(self._by_owner.get(owner.id, {}))
            for table, key in list(getattr(owner, "sireads", {}).values()):
                resource = record_resource(table, key)
                lock = held.get(resource)
                held[resource] = Lock(
                    owner, resource, mask=_SIREAD_BIT | (lock.mask if lock else 0)
                )
            return list(held.values())

    def holds(self, owner: Any, resource: Resource, mode: LockMode | None = None) -> bool:
        """Latch-free (GIL-atomic ``get`` probes): only the owner's own
        thread grants or releases on its behalf while it runs, so the
        answer about one's own locks cannot go stale mid-call; about
        another owner it is a momentary snapshot either way.  Chain
        entries are not locks: ask the chain (``chain.readers``)."""
        owner_locks = self._by_owner.get(owner.id)
        lock = owner_locks.get(resource) if owner_locks else None
        return lock is not None and (mode is None or bool(lock.mask & mode.bit))

    def holds_any_siread(self, owner: Any) -> bool:
        """Latch-free (two GIL-atomic probes): asked at the owner's own
        commit, when nothing else grants to it — escalation only folds
        SIREADs the owner already holds, so it cannot turn a False into a
        True."""
        return owner.id in self._reads or bool(getattr(owner, "sireads", None))

    def waiting_requests(self) -> list[LockRequest]:
        with self._latch:
            return [
                request
                for head in self._heads.values()
                if head.queue
                for request in head.queue
            ]

    def find_deadlock_victims(self, choose: Callable[[list[Any]], Any]) -> list[Any]:
        """Periodic deadlock sweep: find every cycle and pick victims.

        ``choose`` maps a cycle (list of owner objects) to the victim.
        Returns the victims; the caller is responsible for aborting them
        (which will call :meth:`cancel_waits` and break the cycle).
        """
        cycles: list[list[Any]] = []
        with self._latch:
            for cycle_ids in find_cycles(list(self._waiting), self._successors):
                owners = [self._owner_for(owner_id) for owner_id in cycle_ids]
                owners = [owner for owner in owners if owner is not None]
                if owners:
                    cycles.append(owners)
        return [choose(owners) for owners in cycles]

    def waits_for(self, owner_id: Hashable) -> set[Hashable]:
        """The owners ``owner_id`` waits for, read off the lock table."""
        with self._latch:
            return set(self._successors(owner_id))

    def table_size(self) -> int:
        """Number of granted locks plus live chain entries — tracks the
        Section 3.3 growth concern.  Latch-free (GIL-atomic reads) for
        the gauges and :meth:`escalate`'s budget check, where a value one
        grant stale is as good as a fresh one."""
        return self._granted_count + self._chain_count()

    def residue(self) -> dict[str, int]:
        """What is left in the manager, for the after-quiesce audits: every
        count is zero once all transactions have been retired."""
        with self._latch:
            chained = self._chain_count()
            return {
                "granted": self._granted_count + chained,
                "owners": len(
                    self._by_owner.keys() | self._reads.keys() | self.chain_readers.keys()
                    | {owner_id for owner_id, _range in self._escalated_weights}
                ),
                "waiters": len(self._waiting),
                "siread": sum(len(reads) for reads in self._reads.values()) + chained,
            }

    # -------------------------------------------------------------- internals
    # Every helper below runs with the latch held by its caller.

    def _owner_for(self, owner_id: Hashable) -> Any | None:
        locks = self._by_owner.get(owner_id)
        if locks:
            return next(iter(locks.values())).owner
        pending = self._waiting.get(owner_id)
        if pending:
            return next(iter(pending)).owner
        return None

    def _waiting_discard(self, request: LockRequest) -> None:
        pending = self._waiting.get(request.owner.id)
        if pending is not None:
            pending.discard(request)
            if not pending:
                del self._waiting[request.owner.id]

    def _add_mode(self, head: _LockHead, lock: Lock, mode: LockMode) -> None:
        """Add ``mode`` to a granted lock, keeping all summaries in sync.

        Caller guarantees the lock does not already carry the mode."""
        bit = mode.bit
        lock.mask |= bit
        if not head.counts[mode.index]:
            head.mask |= bit
        head.counts[mode.index] += 1
        if mode is LockMode.SIREAD:
            self._reads.setdefault(lock.owner.id, {})[lock.resource] = None
        elif bit == _EXCLUSIVE_BIT and self._exclusive_keys:
            self._index_exclusive(lock.resource, held=True)

    def _discard_mode(self, head: _LockHead, lock: Lock, mode: LockMode) -> None:
        """Remove ``mode`` from a granted lock, keeping summaries in sync.

        Caller guarantees the lock carries the mode."""
        bit = mode.bit
        lock.mask &= ~bit
        head.counts[mode.index] -= 1
        if not head.counts[mode.index]:
            head.mask &= ~bit
        if bit == _EXCLUSIVE_BIT and self._exclusive_keys:
            self._index_exclusive(lock.resource, held=False)
        if mode is LockMode.SIREAD:
            reads = self._reads.get(lock.owner.id)  # drop_siread_locks took it
            if reads is not None:
                del reads[lock.resource]
                if not reads:
                    del self._reads[lock.owner.id]

    def _shed_siread(self, head: _LockHead, lock: Lock) -> int:
        """Strip the SIREAD mode from a lock that stays granted in its
        other modes.  Returns what the sentinel counted for: a folded
        range stands for the sentinels it replaced (its fold goes with
        it), a plain one for itself."""
        self._discard_mode(head, lock, LockMode.SIREAD)
        return self._drop_fold(lock.owner.id, lock.resource)

    def _drop_fold(self, owner_id: Hashable, resource: Resource) -> int:
        """A range's SIREAD is going: pop its fold, take the owner's id
        off the chains it folded, and return what it counted for (1 for
        a range that folded nothing)."""
        fold = self._escalated_weights.pop((owner_id, resource), None)
        if fold is None:
            return 1
        for chain in fold.chains:
            chain.readers.pop(owner_id, None)
        return fold.weight

    def _detection_conflicts(self, head: _LockHead, owner: Any, mode: LockMode) -> list[Lock]:
        """Granted locks of other owners that signal rw-dependencies."""
        interesting = mode.detect_mask
        if not head.mask & interesting:
            return _NO_CONFLICTS
        owner_id = owner.id
        return [
            lock
            for oid, lock in head.granted.items()
            if oid != owner_id and lock.mask & interesting
        ]

    def _blockers(
        self,
        head: _LockHead,
        owner: Any,
        mode: LockMode,
        upgrading: bool = False,
        ahead: Iterable[LockRequest] | None = None,
    ) -> list[Any]:
        """Owners whose granted locks (or requests queued *ahead*) block
        ``mode``.  ``ahead`` defaults to the whole queue (the right view
        for a brand-new request); _promote passes only the true prefix."""
        incompat = mode.incompat_mask
        if head.mask & incompat:
            owner_id = owner.id
            blockers = [
                lock.owner
                for oid, lock in head.granted.items()
                if oid != owner_id and lock.mask & incompat
            ]
        else:
            blockers = []
        if blockers or upgrading:
            # Upgraders only wait for granted incompatible locks; they jump
            # ahead of the queue (appendleft in _enqueue_wait).
            return blockers
        # FIFO fairness: an incompatible request already queued ahead (by
        # another owner) blocks too.
        queued_ahead = (head.queue or ()) if ahead is None else ahead
        for queued in queued_ahead:
            if queued.owner.id != owner.id and queued.mode.bit & incompat:
                blockers.append(queued.owner)
        return blockers

    def _grant(
        self,
        head: _LockHead,
        owner: Any,
        resource: Resource,
        mode: LockMode,
        held: Lock | None,
        chain: Any = None,
    ) -> None:
        """Give ``owner`` ``mode`` on ``resource``; ``held`` is the lock
        it already holds there, if any (a no-op when that lock carries
        the mode already).  An EXCLUSIVE grant publishes ``owner`` as
        the ``writer`` of the record's ``chain``, if given."""
        owner_id = owner.id
        if held is None:
            held = head.granted[owner_id] = Lock(owner, resource)
            self._by_owner[owner_id][resource] = held
            self._granted_count += 1
        if not held.mask & mode.bit:
            self._add_mode(head, held, mode)
        if mode is not LockMode.EXCLUSIVE:
            return
        if chain is not None:
            chain.writer = owner_id
        # SIREAD->EXCLUSIVE upgrade discards the owner's SIREAD so it is
        # not retained after commit (Section 3.7.3); the new version's
        # first-committer conflicts subsume its detection role.
        if self.siread_upgrade:
            if held.mask & _SIREAD_BIT:
                self._discard_mode(head, held, LockMode.SIREAD)
                self.stats["siread_dropped"] += 1
            if chain is not None:
                sireads = owner.sireads
                if sireads.pop(chain, None) is not None:
                    chain.readers.pop(owner_id, None)
                    if not sireads:
                        self.chain_readers.pop(owner_id, None)
                    self.stats["siread_dropped"] += 1

    def _promote(self, resource: Resource) -> None:
        """Grant queued requests now compatible, front-first (FIFO)."""
        head = self._heads.get(resource)
        if head is None:
            return
        while head.queue:
            request = head.queue[0]
            owner_locks = self._by_owner.get(request.owner.id)
            held = owner_locks.get(resource) if owner_locks else None
            if self._blockers(
                head, request.owner, request.mode, upgrading=held is not None, ahead=()
            ):
                break
            head.queue.popleft()
            # Index the grant before the request leaves _waiting: the
            # owner is then never absent from both indexes, which is what
            # release_all's latch-free early exit relies on.
            self._grant(head, request.owner, resource, request.mode, held, request.chain)
            self._waiting_discard(request)
            request._resolve(RequestState.GRANTED)
            if self.trace is not None:
                self.trace.emit(
                    EventType.LOCK_GRANT, request.owner.id,
                    resource=repr(resource), mode=request.mode.value,
                )
        if head.empty():
            self._drop_head(resource)

    def _successors(self, owner_id: Hashable) -> list[Hashable]:
        """Who ``owner_id`` waits for, derived from its queued requests:
        per request, every other owner granted a conflicting mode on the
        resource and every other owner queued ahead of it in one.  Every
        mode a lock carries counts, as in :meth:`_blockers`: a range
        holding SHARED + INSERT_INTENTION blocks writers through its
        SHARED bit although INSERT_INTENTION is the stronger mode."""
        found: dict[Hashable, None] = {}
        for request in self._waiting.get(owner_id, ()):
            head = self._heads[request.resource]
            incompat = request.mode.incompat_mask
            for holder_id, lock in head.granted.items():
                if holder_id != owner_id and lock.mask & incompat:
                    found[holder_id] = None
            for earlier in head.queue:
                if earlier is request:
                    break
                if earlier.owner.id != owner_id and earlier.mode.bit & incompat:
                    found[earlier.owner.id] = None
        return list(found)

    def _resolve_deadlocks(self, request: LockRequest) -> None:
        """Immediate detection: break every cycle through the new waiter."""
        guard = 0
        while request.state is RequestState.WAITING:
            cycle_ids = find_cycle_through(request.owner.id, self._successors)
            if not cycle_ids:
                return
            owners = [self._owner_for(owner_id) for owner_id in cycle_ids]
            owners = [owner for owner in owners if owner is not None]
            victim = self.deadlock_handler(owners, request)
            if victim is None:
                return
            guard += 1
            if guard > 100:
                raise RuntimeError("deadlock resolution did not converge")
