"""The lock manager.

A classic FIFO-queued lock manager extended with the paper's requirements:

* a non-blocking ``SIREAD`` mode whose conflicts are *reported* rather than
  enforced (Section 3.2).  A point SIREAD (a record or a page) is not a
  lock head at all: it is one entry in the *reader table*, resource ->
  {owner id: owner}, plus one item in its owner's read list.  Requesting
  one (:meth:`LockManager.acquire`) is a single critical section that
  checks the owner's own key ranges (a covered read adds nothing), adds
  the entry and collects the EXCLUSIVE holders of the resource (Fig 3.4);
  a re-read finds its entry and does nothing;
* SIREAD locks retained after their owner commits, until no concurrent
  transaction remains (Section 3.3).  Commit's :meth:`LockManager.release_all`
  with ``keep_siread=True`` never sees the reader table, and
  :meth:`LockManager.drop_siread_locks` walks the owner's read list once;
* SIREAD -> EXCLUSIVE upgrade: an EXCLUSIVE grant, from the queue too,
  drops the owner's reader entry on the same resource (Section 3.7.3 /
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
  budget, an owner's record reader entries and pure range SIREADs on one
  table fold into one key range over their span, met by writers like any
  scan's.

Lock acquisition never blocks the calling thread.  When a request must
wait it is enqueued and an :class:`AcquireResult` with ``status=WAIT`` is
returned; engine operations translate that into a
:class:`~repro.errors.LockWaitRequired` control-flow exception which
executors handle.  Acquisition is idempotent: re-requesting a held lock in
the same or weaker mode is a no-op, which is what makes operation retry
after a wait safe.

Performance structure:

* one re-entrant latch (rank ``lock``) over the whole manager, as in the
  paper's prototype (Section 4.4): every grant settles the same per-owner
  indexes, so a partitioned table could not let two grants overlap, and
  under the GIL none run at once anyway.  One latch makes each public
  call one critical section and one latch acquisition;
* a point SIREAD allocates no :class:`Lock`: the reader table stores the
  owner, and a :class:`Lock` is built only when a writer meets readers;
* every granted lock and every :class:`_LockHead` carries an integer
  ``mask`` summarising its modes, so conflict/coverage/detection checks
  are one AND against the pre-folded per-mode masks from
  :mod:`repro.locking.modes` instead of set algebra over Enum members;
* ``_LockHead.granted`` is a dict keyed by owner id — grant, upgrade and
  removal are O(1) while iteration keeps insertion (grant) order;
* per-owner indexes of granted locks, of SIREADs (the read list) and of
  *waiting* requests make :meth:`release_all`, :meth:`drop_siread_locks`
  and :meth:`cancel_waits` O(locks/requests owned).  Nothing on the
  commit/abort path walks the whole table — essential once Section 3.3
  SIREAD retention inflates it — and an owner holding only point SIREADs
  commits without taking the latch;
* the sorted index of EXCLUSIVE-held record keys that range readers
  bisect exists only for tables some range has touched, so writes to
  tables nobody scans maintain nothing;
* the granted-lock counter and the read lists make :meth:`table_size`
  and :meth:`holds_any_siread` O(1).
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right, insort
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, NamedTuple, Sequence

from repro.engine.latches import make_latch
from repro.engine.waits import Completion
from repro.locking.deadlock import WaitsForGraph
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
    that its owner's own insert also claims (INSERT_INTENTION).  A point
    SIREAD has no lock of its own (it is a reader-table entry): the
    queries build one for it, merged with its owner's lock on the same
    resource — with ``siread_upgrade`` off, a transaction that read a
    record and then wrote it shows SIREAD+EXCLUSIVE.  The modes are
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

    __slots__ = ("resource", "mode", "state", "error")

    def __init__(self, owner: Any, resource: Resource, mode: LockMode,
                 manager: Any = None) -> None:
        super().__init__(owner, manager)
        self.resource = resource
        self.mode = mode
        self.state = RequestState.WAITING
        self.error: Exception | None = None

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
    ``counts`` is the per-mode grant count, packed as 16-bit fields of one
    integer (field ``mode.index``), and ``mask`` keeps the OR of bits with
    a non-zero count — so "can this request possibly conflict / is
    anything interesting granted here" is a single AND without touching
    the granted locks, and head construction (which scan workloads do per
    lock, since empty heads are reclaimed) allocates no per-mode list.
    ``queue`` stays ``None`` until the first waiter: the vast majority of
    heads never see contention and skip the deque allocation entirely.
    """

    __slots__ = ("granted", "queue", "counts", "mask")

    def __init__(self):
        self.granted: dict[Hashable, Lock] = {}
        self.queue: deque[LockRequest] | None = None
        self.counts: int = 0
        self.mask: int = 0

    def mode_count(self, mode: LockMode) -> int:
        """Granted locks carrying ``mode`` (test/introspection helper)."""
        return (self.counts >> (mode.index << 4)) & 0xFFFF

    def empty(self) -> bool:
        return not self.granted and not self.queue


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
#: the granted modes a point SIREAD reports (Fig 3.4's writers)
_WRITE_BITS = LockMode.SIREAD.detect_mask
_EXCLUSIVE_BIT = LockMode.EXCLUSIVE.bit
_SHARED_BIT = LockMode.SHARED.bit

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
    """Lock table with FIFO queuing, upgrades and waits-for maintenance.

    Thread-safe under **one** re-entrant latch (rank ``lock``), the
    paper's Section 4.4 arrangement: ``_latch`` guards the resource->head
    map and every field of its heads (wait queues included), the reader
    table, the per-owner indexes (``_by_owner``, ``_reads``,
    ``_waiting``), the range and EXCLUSIVE-key indexes, the granted-lock
    counter, the escalation weights, the waits-for graph and the stats
    group.  Every public method is exactly one critical section, so a
    release and an escalation can never interleave; private helpers run
    with the latch already held.
    The handful of latch-free reads that remain are single GIL-atomic
    dict/int probes, each documented where it happens with the reason a
    stale answer is safe.

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
        #: the reader table: point resource (record or page) -> {owner
        #: id: owner} for every point SIREAD granted there.  Point
        #: SIREADs live here and nowhere else — not in ``_heads``.
        self._readers: dict[Resource, dict[Hashable, Any]] = {}
        #: owner id -> every resource it holds SIREAD on, in grant order:
        #: its reader-table entries and its SIREAD ranges (head locks).
        #: An owner is present iff it holds one: O(1) holds_any_siread,
        #: consulted on every SSI commit, and cleanup's one walk.
        self._reads: dict[Hashable, list[Resource]] = {}
        #: granted head locks plus reader-table entries
        self._granted_count = 0
        #: (owner_id, folded range) -> the sentinels that range stands
        #: for, itself included.  An entry exists for every folded range
        #: still granted; it leaves with the range's SIREAD.
        self._escalated_weights: dict[tuple[Hashable, Resource], int] = {}
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
        self.waits_for = WaitsForGraph()
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
        key: Hashable | None = None,
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

        A SIREAD on a record or page never waits and is always granted
        (:meth:`_acquire_siread`).  ``key`` marks it a point read of that
        record key (the engine's reads pass it, for a page resource too):
        then a key range of the owner's own covering ``key`` stands in for
        the reader entry.

        An EXCLUSIVE request reports the resource's reader entries (Fig
        3.5); its grant drops its owner's own under ``siread_upgrade``.  An
        EXCLUSIVE record request also meets the key ranges covering its
        key, in the same critical section.  Another owner's SHARED range
        makes it wait, queued as an INSERT_INTENTION request on that
        range; every other owner's SIREAD range joins the detection
        conflicts — the writer half of phantom detection.
        """
        point = resource.kind != "range"
        if mode is LockMode.SIREAD and point:
            return self._acquire_siread(owner, resource, key)
        owner_id = owner.id
        with self._latch:
            self.stats["acquires"] += 1
            owner_locks = self._by_owner.get(owner_id)
            held = owner_locks.get(resource) if owner_locks else None
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
            readers = self._readers.get(resource) if point and self._readers else None
            head = self._heads.get(resource)
            if head is None:
                head = self._heads[resource] = _LockHead()
            # A covered request (idempotent re-acquire) grants nothing but
            # still reports detection conflicts, for retry correctness.
            if held is None or not held.mask & mode.covered_by_mask:
                # A range SIREAD never blocks and never waits (Section 3.2).
                if mode is not LockMode.SIREAD:
                    upgrading = held is not None or (
                        readers is not None and owner_id in readers
                    )
                    if self._blockers(head, owner, mode, upgrading=upgrading):
                        return self._enqueue_wait(owner, resource, mode, head, upgrading)
                    if upgrading:
                        self.stats["upgrades"] += 1
                self._grant(head, owner, resource, mode, held)
            conflicts = self._detection_conflicts(head, owner, mode)
            if readers and mode.detect_mask & _SIREAD_BIT:
                met = self._readers_met(readers, resource, owner_id)
                if met:
                    conflicts = conflicts + met
            if ranges:
                met = self._range_readers(ranges, owner_id, resource.key)
                if met:
                    conflicts = conflicts + met
        if not conflicts:
            return _GRANTED_CLEAN
        return AcquireResult(AcquireStatus.GRANTED, detection_conflicts=conflicts)

    def _acquire_siread(
        self, owner: Any, resource: Resource, key: Hashable | None
    ) -> AcquireResult:
        """A point SIREAD (Fig 3.4), one critical section: a re-read
        finds its entry and does nothing — not even count an acquire, as
        it grants nothing; a read covered by the owner's EXCLUSIVE lock,
        or a point read of ``key`` covered by one of its key ranges, adds
        no entry (a writer of the key meets the range); any other read
        adds one reader entry.  Either way but the re-read, the EXCLUSIVE
        holders of ``resource`` come back as detection conflicts."""
        owner_id = owner.id
        with self._latch:
            readers = self._readers.get(resource)
            if readers is not None and owner_id in readers:
                return _GRANTED_CLEAN
            self.stats["acquires"] += 1
            owner_locks = self._by_owner.get(owner_id)
            covered = False
            if owner_locks:
                held = owner_locks.get(resource)
                if held is not None and held.mask & _EXCLUSIVE_BIT:
                    return _GRANTED_CLEAN
                if key is not None:
                    ranges = self._ranges.get(resource.table)
                    covered = bool(ranges) and self._own_range_over(
                        ranges, owner_id, key, _SIREAD_BIT
                    )
            if not covered:
                if readers is None:
                    self._readers[resource] = {owner_id: owner}
                else:
                    readers[owner_id] = owner
                reads = self._reads.get(owner_id)
                if reads is None:
                    self._reads[owner_id] = [resource]
                else:
                    reads.append(resource)
                self._granted_count += 1
            head = self._heads.get(resource)
            if head is None or not head.mask & _WRITE_BITS:
                return _GRANTED_CLEAN
            conflicts = [
                lock for holder_id, lock in head.granted.items()
                if holder_id != owner_id and lock.mask & _WRITE_BITS
            ]
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
        conflicts (granted write-mode locks of other owners, for the
        caller to dispatch as rw edges), and the resources that need the
        normal one-at-a-time path.  Deferred resources are *not* counted
        as acquires here; the caller's normal acquire counts them.

        SIREAD defers nothing: each resource is :meth:`acquire` in turn.
        A blocking read mode (SHARED) goes strictly in submission order
        and STOPS at the first resource that cannot be granted fresh — an
        incompatible holder, a non-empty queue (FIFO fairness), or a
        non-covering lock of this owner's own: granting later resources
        while an earlier one must wait would invert the scan's lock order
        against concurrent writers and manufacture deadlocks.  Everything
        from the stopping point on is deferred, in order, to the caller's
        normal blocking path.
        """
        conflicts: list[Lock] = []
        deferred: list[Resource] = []
        with self._latch:
            if mode is LockMode.SIREAD:
                for resource in resources:
                    conflicts.extend(self.acquire(owner, resource, mode).detection_conflicts)
                return conflicts, deferred
            owner_id = owner.id
            bit = mode.bit
            shift = mode.index << 4
            incompat = mode.incompat_mask
            settled = 0
            heads = self._heads
            owner_locks = self._by_owner.get(owner_id)
            for index, resource in enumerate(resources):
                held = owner_locks.get(resource) if owner_locks else None
                if held is not None and held.mask & mode.covered_by_mask:
                    settled += 1  # idempotent re-acquire: count, done
                    continue
                head = heads.get(resource)
                readers = self._readers.get(resource)
                if (
                    held is not None
                    or (readers is not None and owner_id in readers)
                    or (head is not None and (head.mask & incompat or head.queue))
                ):
                    deferred = list(resources[index:])
                    break
                if head is None:
                    head = heads[resource] = _LockHead()
                # Fresh single-mode grant, inlined (_grant per row would
                # dominate a 1024-row scan).
                if owner_locks is None:
                    owner_locks = self._by_owner[owner_id]
                owner_locks[resource] = head.granted[owner_id] = Lock(
                    owner, resource, mask=bit
                )
                if not (head.counts >> shift) & 0xFFFF:
                    head.mask |= bit
                head.counts += 1 << shift
                settled += 1
                self._granted_count += 1
            self.stats["acquires"] += settled
        return conflicts, deferred

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

    def narrow_range(
        self, owner: Any, table: str, lo: Hashable | None,
        hi: Hashable | None, cut: Hashable,
    ) -> None:
        """Replace ``owner``'s range ``[lo, hi]`` with ``[lo, cut]``, in
        the same read mode, in one critical section (a prefix scan that
        stopped at ``cut``); writers queued on the wide range are
        promoted and meet the narrow one when they retry.  Nothing
        happens when ``[lo, hi]`` is no longer the scan's own range:
        escalation folded it, and the fold covers ``[lo, hi]`` and
        whatever else it absorbed."""
        wide = range_resource(table, lo, hi)
        narrow = range_resource(table, lo, cut)
        if narrow == wide:
            return
        owner_id = owner.id
        with self._latch:
            owner_locks = self._by_owner.get(owner_id)
            lock = owner_locks.get(wide) if owner_locks else None
            if lock is None or (owner_id, wide) in self._escalated_weights:
                return
            mode = LockMode.SHARED if lock.mask & _SHARED_BIT else LockMode.SIREAD
            self._place_range(owner, narrow, mode, owner_locks.get(narrow))
            self._drop_range(owner_id, lock)

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
        grants it a read lock, and escalation only folds SIREADs it
        already holds."""
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
        here now wait for this owner too: their waits-for edges are
        refreshed, or a cycle through them would go unseen."""
        head = self._heads.get(resource)
        if head is None:
            head = self._heads[resource] = _LockHead()
            self._ranges.setdefault(resource.table, {})[resource] = head
        self._grant(head, owner, resource, mode, held)
        if head.queue:
            self._refresh_wait_edges(head)

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
    ) -> AcquireResult:
        """Queue a blocked request (caller holds the latch).

        Upgrades — the owner already holds a lock or a reader entry here
        — queue at the front (standard treatment) so an upgrader is not
        starved behind later plain requests."""
        owner_id = owner.id
        request = LockRequest(owner, resource, mode, self)
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
        self._refresh_wait_edges(head)

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
        the SIREADs stay: the reader table is not touched at all, and a
        range's SIREAD mode is kept while its other modes go.  They are
        dropped later by :meth:`drop_siread_locks` once no concurrent
        transaction remains.  Without it (abort) the reader entries go
        too.

        An owner with nothing to release exits with no latch at all — at
        a retaining commit, that is an owner holding only point SIREADs.
        The membership probes are GIL-atomic, and a stale "absent" cannot
        hide a lock: nothing is ever granted to an owner that is in none
        of the indexes — escalation only folds held SIREADs, and
        :meth:`_promote` indexes a waiter's grant *before* it leaves
        ``_waiting``.
        """
        owner_id = owner.id
        if (
            owner_id not in self._by_owner and owner_id not in self._waiting
            and (keep_siread or owner_id not in self._reads)
        ):
            return
        with self._latch:
            if not keep_siread:
                reads = self._reads.pop(owner_id, None)
                if reads:
                    self._forget_readers(owner_id, reads)
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
            # Waits-for maintenance is only owed when the owner has
            # waiting requests or stale outgoing edges (a promoted-then-
            # granted waiter keeps its edges until here); stale *incoming*
            # edges cannot survive the promotions above, which refresh
            # every queue the owner's locks were blocking.
            if self._waiting.get(owner_id) or owner_id in self.waits_for._edges:
                self.cancel_waits(owner)

    def retain_all_reads(self, owner: Any) -> bool:
        """Would ``release_all(owner, keep_siread=True)`` keep every lock
        the owner holds?  Then only its pending waits and waits-for edges
        are cancelled here and True is returned; False when it holds a
        lock without SIREAD (e.g. a SHARED-read retaining policy).

        No engine path calls it any more — a retaining commit of an owner
        holding only point SIREADs leaves :meth:`release_all` latch-free —
        it is kept only because the benchmark's layer tracer targets it.
        """
        owner_id = owner.id
        with self._latch:
            held = self._by_owner.get(owner_id)
            if held is not None and any(
                not lock.mask & _SIREAD_BIT for lock in held.values()
            ):
                return False
            if self._waiting.get(owner_id) or owner_id in self.waits_for._edges:
                self.cancel_waits(owner)
        return True

    def drop_siread_locks(self, owner: Any) -> int:
        """Remove the retained SIREADs of a cleaned-up suspended txn: one
        walk of its read list, reader entries and ranges alike.

        The weighted return value counts a folded range as the sentinels
        it replaced.

        An owner absent from ``_reads`` returns 0 with no latch (one
        GIL-atomic probe); the stale answer is safe for the reason given
        in :meth:`release_all` — no path grants to an owner holding
        nothing.
        """
        owner_id = owner.id
        if owner_id not in self._reads:
            return 0
        with self._latch:
            reads = self._reads.pop(owner_id, None)
            if not reads:
                return 0
            points = self._forget_readers(owner_id, reads)
            removed: list[Lock] = []
            shed = 0
            if points < len(reads):
                heads = self._heads
                locks = self._by_owner[owner_id]
                for resource in reads:
                    if resource.kind != "range":
                        continue
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

    def _forget_readers(self, owner_id: Hashable, reads: Sequence[Resource]) -> int:
        """Remove ``owner_id``'s reader entries among ``reads`` (its read
        list, already taken out of ``_reads``; ranges are skipped) and
        return how many there were."""
        table = self._readers
        points = 0
        for resource in reads:
            if resource.kind != "range":
                readers = table[resource]
                del readers[owner_id]
                if not readers:
                    del table[resource]
                points += 1
        self._granted_count -= points
        return points

    def _drop_readers(self, owner_id: Hashable, points: Sequence[Resource]) -> None:
        """Remove reader entries of ``owner_id``, from its read list too."""
        self._forget_readers(owner_id, points)
        self._unlist_reads(owner_id, points)

    def _unlist_reads(self, owner_id: Hashable, gone: Sequence[Resource]) -> None:
        """Take ``gone`` out of ``owner_id``'s read list, if it has one."""
        reads = self._reads.get(owner_id)
        if reads is None:
            return
        if len(gone) == 1:
            reads.remove(gone[0])
        else:
            dropped = set(gone)
            reads[:] = [resource for resource in reads if resource not in dropped]
        if not reads:
            del self._reads[owner_id]

    @staticmethod
    def _readers_met(
        readers: dict[Hashable, Any], resource: Resource, owner_id: Hashable
    ) -> list[Lock]:
        """The other owners among ``resource``'s ``readers``, as the
        SIREAD :class:`Lock` objects a detection conflict carries."""
        return [
            Lock(reader, resource, mask=_SIREAD_BIT)
            for reader_id, reader in readers.items()
            if reader_id != owner_id
        ]

    def _detach_lock(self, head: _LockHead, lock: Lock) -> None:
        """Head-side removal of a granted lock (caller holds the latch).
        The per-owner bookkeeping is settled separately, in one batch,
        via :meth:`_forget_locks`."""
        del head.granted[lock.owner.id]
        if lock.mask & _EXCLUSIVE_BIT and self._exclusive_keys:
            self._index_exclusive(lock.resource, held=False)
        for mode in _MODES_IN[lock.mask]:
            shift = mode.index << 4
            head.counts -= 1 << shift
            if not (head.counts >> shift) & 0xFFFF:
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

        A folded range counts as the sentinels it replaced: its weight
        entry is popped here, and when the removal is being
        counted as a drop the surplus (weight - 1 per coarse lock) joins
        ``siread_dropped`` so obs snapshots stay comparable before and
        after escalation.  Returns the surplus for callers that report
        weighted totals."""
        surplus = 0
        if removed:
            self._granted_count -= len(removed)
            owner_locks = self._by_owner[owner_id]
            weights = self._escalated_weights
            siread_gone = []
            for lock in removed:
                if lock.mask & _SIREAD_BIT:
                    siread_gone.append(lock.resource)
                if weights:
                    surplus += weights.pop((owner_id, lock.resource), 1) - 1
                del owner_locks[lock.resource]
            if not owner_locks:
                del self._by_owner[owner_id]
            if siread_gone:
                self._unlist_reads(owner_id, siread_gone)
        if dropped_stat:
            self.stats["siread_dropped"] += dropped_stat + surplus
        return surplus

    # ----------------------------------------------------- SIREAD escalation

    def escalate(self, budget: int | None) -> None:
        """Bring the lock table back under ``budget`` granted locks by
        folding SIREADs into key ranges (``None`` = no budget).

        Victims are the busiest SIREAD holders (ties by owner id).  A
        victim's record reader entries and pure range SIREADs on one
        table fold into one range over their span (:meth:`_fold`); a
        record the victim also holds a lock on belongs to an active
        writer and stays put, a page entry is never folded, and a lone
        sentinel is already as coarse as its fold.  Writers meet the fold
        in :meth:`acquire` like any scan's range, and a range covers keys
        no leaf holds yet, so a leaf split owes it nothing.  Only pure
        SIREADs fold: a SHARED range or a writer's INSERT_INTENTION claim
        never stands in for one.

        Soundness: the whole escalation is one critical section, so a
        writer sees the fine sentinels or their fold, never neither, and
        the fold covers every key they covered — escalation can add
        false-positive rw edges but never lose one.  The latch-free
        budget check reads one int (:meth:`table_size`)."""
        if budget is None or self._granted_count <= budget:
            return
        with self._latch:
            ranked = sorted(
                ((owner_id, len(reads)) for owner_id, reads in self._reads.items()),
                key=lambda item: (-item[1], str(item[0])),
            )
            for owner_id, _count in ranked:
                locks = self._by_owner.get(owner_id, {})
                by_table: dict[str, list[Resource]] = {}
                for resource in self._reads[owner_id]:
                    if resource.kind == "rec":
                        foldable = resource not in locks
                    else:
                        foldable = (
                            resource.kind == "range"
                            and locks[resource].mask == _SIREAD_BIT
                        )
                    if foldable:
                        by_table.setdefault(resource.table, []).append(resource)
                for table, resources in by_table.items():
                    if len(resources) > 1:
                        self._fold(owner_id, table, resources)
                    if self._granted_count <= budget:
                        return

    def _fold(self, owner_id: Hashable, table: str, resources: list[Resource]) -> None:
        """Replace one owner's pure SIREADs on ``table`` — record reader
        entries and range locks, ``resources`` — with one SIREAD on the
        range ``[min lo, max hi]`` of what they covered (a record covers
        its own key; an open end stays ``None``; bounds that do not order
        against each other fold to the whole table).

        The replaced sentinels are *folded*, not dropped: no
        ``siread_dropped`` bump — the range's weight entry carries their
        count, folded ranges' own weights included, to whichever path
        finally removes it."""
        spans = [
            resource.key if resource.kind == "range"
            else (resource.key, resource.key)
            for resource in resources
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
        first = resources[0]
        owner = (
            locks[first].owner if first.kind == "range"
            else self._readers[first][owner_id]
        )
        weight_key = (owner_id, target)
        weight = self._escalated_weights.get(weight_key, 1)
        self._place_range(owner, target, LockMode.SIREAD, locks.get(target))
        points = [resource for resource in resources if resource.kind == "rec"]
        if points:
            self._drop_readers(owner_id, points)
        removed = [
            self._by_owner[owner_id][resource] for resource in resources
            if resource.kind == "range" and resource != target
        ]
        for lock in removed:
            self._detach_lock(self._heads[lock.resource], lock)
        surplus = self._forget_locks(owner_id, removed)
        folded = len(points) + len(removed)
        self._escalated_weights[weight_key] = weight + folded + surplus
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
        found = (
            self._detection_conflicts(head, owner, mode)
            if head is not None else _NO_CONFLICTS
        )
        readers = self._readers.get(resource)
        if readers and mode.detect_mask & _SIREAD_BIT:
            found = found + self._readers_met(readers, resource, owner.id)
        return found

    def siread_lock_count(self) -> int:
        """Granted SIREADs, across all owners (obs gauge): reader entries
        plus SIREAD ranges."""
        with self._latch:
            return sum(len(reads) for reads in self._reads.values())

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
            # The owner no longer waits for anyone: drop its outgoing
            # edges now (the refresh below only recomputes requests still
            # queued), or a holder enqueueing behind this doomed owner
            # would close a phantom cycle and be chosen as victim.
            self.waits_for.clear_edges_from(request.owner.id)
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
            self._refresh_wait_edges(head)
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
                touched: dict[Resource, _LockHead] = {}
                for request in pending:
                    head = touched[request.resource] = self._heads[request.resource]
                    head.queue.remove(request)
                    request._resolve(RequestState.DENIED, error)
                    if self.trace is not None:
                        self.trace.emit(
                            EventType.LOCK_DENY, request.owner.id,
                            resource=repr(request.resource),
                            mode=request.mode.value,
                            error=type(error).__name__ if error else None,
                        )
                for resource, head in touched.items():
                    self._refresh_wait_edges(head)
                    self._promote(resource)
            # Outgoing edges only: a doomed owner still holds its locks
            # until it aborts, so the edges of those waiting on it are
            # real and a cycle through them must stay detectable.
            self.waits_for.clear_edges_from(owner.id)

    # --------------------------------------------------------------- queries

    def locks_on(self, resource: Resource) -> list[Lock]:
        """The granted locks on ``resource``, one per owner; a reader
        entry shows as a SIREAD :class:`Lock`, merged with its owner's
        head lock there if it has one."""
        with self._latch:
            head = self._heads.get(resource)
            locks = dict(head.granted) if head else {}
            for reader_id, reader in self._readers.get(resource, {}).items():
                lock = locks.get(reader_id)
                locks[reader_id] = Lock(
                    reader, resource, mask=_SIREAD_BIT | (lock.mask if lock else 0)
                )
            return list(locks.values())

    def locks_held_by(self, owner: Any) -> list[Lock]:
        """The locks ``owner`` holds, one per resource, reader entries
        included (as in :meth:`locks_on`)."""
        with self._latch:
            held = dict(self._by_owner.get(owner.id, {}))
            for resource in self._reads.get(owner.id, ()):
                if resource.kind != "range":
                    lock = held.get(resource)
                    held[resource] = Lock(
                        owner, resource, mask=_SIREAD_BIT | (lock.mask if lock else 0)
                    )
            return list(held.values())

    def holds(self, owner: Any, resource: Resource, mode: LockMode | None = None) -> bool:
        """Latch-free (GIL-atomic ``get`` probes): only the owner's own
        thread grants or releases on its behalf while it runs, so the
        answer about one's own locks cannot go stale mid-call; about
        another owner it is a momentary snapshot either way."""
        owner_locks = self._by_owner.get(owner.id)
        lock = owner_locks.get(resource) if owner_locks else None
        if lock is not None and (mode is None or lock.mask & mode.bit):
            return True
        if mode is not None and mode is not LockMode.SIREAD:
            return False
        readers = self._readers.get(resource)
        return readers is not None and owner.id in readers

    def holds_any_siread(self, owner: Any) -> bool:
        """Latch-free (one GIL-atomic probe): asked at the owner's own
        commit, when nothing else grants to it — escalation only folds
        SIREADs the owner already holds, so it cannot turn a False into a
        True."""
        return owner.id in self._reads

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
        seen: set[Hashable] = set()
        with self._latch:
            for cycle_ids in self.waits_for.find_cycles():
                if seen & set(cycle_ids):
                    continue
                seen.update(cycle_ids)
                owners = [self._owner_for(owner_id) for owner_id in cycle_ids]
                owners = [owner for owner in owners if owner is not None]
                if owners:
                    cycles.append(owners)
        return [choose(owners) for owners in cycles]

    def table_size(self) -> int:
        """Number of granted locks, head locks plus reader entries —
        tracks the Section 3.3 growth concern.
        Latch-free: one int read feeding gauges and :meth:`escalate`'s
        budget check, where a value one grant stale is as good as a fresh one."""
        return self._granted_count

    def residue(self) -> dict[str, int]:
        """What is left in the manager, for the after-quiesce audits: every
        count is zero once all transactions have been retired."""
        with self._latch:
            return {
                "granted": self._granted_count,
                "owners": len(self._by_owner.keys() | self._reads.keys()),
                "waiters": len(self._waiting),
                "siread": sum(len(reads) for reads in self._reads.values()),
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
        shift = mode.index << 4
        if not (head.counts >> shift) & 0xFFFF:
            head.mask |= bit
        head.counts += 1 << shift
        if mode is LockMode.SIREAD:
            self._reads.setdefault(lock.owner.id, []).append(lock.resource)
        elif bit == _EXCLUSIVE_BIT and self._exclusive_keys:
            self._index_exclusive(lock.resource, held=True)

    def _discard_mode(self, head: _LockHead, lock: Lock, mode: LockMode) -> None:
        """Remove ``mode`` from a granted lock, keeping summaries in sync.

        Caller guarantees the lock carries the mode."""
        bit = mode.bit
        lock.mask &= ~bit
        shift = mode.index << 4
        head.counts -= 1 << shift
        if not (head.counts >> shift) & 0xFFFF:
            head.mask &= ~bit
        if bit == _EXCLUSIVE_BIT and self._exclusive_keys:
            self._index_exclusive(lock.resource, held=False)
        if mode is LockMode.SIREAD:
            self._unlist_reads(lock.owner.id, (lock.resource,))

    def _shed_siread(self, head: _LockHead, lock: Lock) -> int:
        """Strip the SIREAD mode from a lock that stays granted in its
        other modes.  Returns what the sentinel counted for: a folded
        range stands for the sentinels it replaced (its weight entry goes
        with it), a plain one for itself."""
        self._discard_mode(head, lock, LockMode.SIREAD)
        return self._escalated_weights.pop((lock.owner.id, lock.resource), 1)

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
    ) -> None:
        """Give ``owner`` ``mode`` on ``resource``; ``held`` is the lock
        it already holds there, if any (a no-op when that lock carries
        the mode already)."""
        owner_id = owner.id
        if held is None:
            held = head.granted[owner_id] = Lock(owner, resource)
            self._by_owner[owner_id][resource] = held
            self._granted_count += 1
        if not held.mask & mode.bit:
            self._add_mode(head, held, mode)
        # SIREAD->EXCLUSIVE upgrade discards the reader entry so it is
        # not retained after commit (Section 3.7.3); the new version's
        # first-committer conflicts subsume its detection role.
        if mode is LockMode.EXCLUSIVE and self.siread_upgrade and self._readers:
            readers = self._readers.get(resource)
            if readers is not None and owner_id in readers:
                self._drop_readers(owner_id, (resource,))
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
            self._grant(head, request.owner, resource, request.mode, held)
            self._waiting_discard(request)
            request._resolve(RequestState.GRANTED)
            if self.trace is not None:
                self.trace.emit(
                    EventType.LOCK_GRANT, request.owner.id,
                    resource=repr(resource), mode=request.mode.value,
                )
        if head.queue:
            self._refresh_wait_edges(head)
        if head.empty():
            self._drop_head(resource)

    def _refresh_wait_edges(self, head: _LockHead) -> None:
        """Recompute waits-for edges contributed by this resource's queue."""
        if not head.queue:
            return
        # Remove then re-add: simple and correct; queues are short.
        for request in head.queue:
            self.waits_for.clear_edges_from(request.owner.id)
        # Re-add edges for every waiter of every resource the owner waits on
        # (an owner can wait on at most one resource at a time in this
        # engine, so recomputing from this head alone is sufficient).
        # Every mode a lock carries counts, as in _blockers: a range
        # holding SHARED + INSERT_INTENTION blocks writers through its
        # SHARED bit although INSERT_INTENTION is the stronger mode.
        ahead: list[LockRequest] = []
        for request in head.queue:
            incompat = request.mode.incompat_mask
            request_owner_id = request.owner.id
            for lock in head.granted.values():
                if lock.owner_id != request_owner_id and lock.mask & incompat:
                    self.waits_for.add_edge(request_owner_id, lock.owner_id)
            for earlier in ahead:
                if earlier.owner.id != request_owner_id and earlier.mode.bit & incompat:
                    self.waits_for.add_edge(request_owner_id, earlier.owner.id)
            ahead.append(request)

    def _resolve_deadlocks(self, request: LockRequest) -> None:
        """Immediate detection: break every cycle through the new waiter."""
        guard = 0
        while request.state is RequestState.WAITING:
            cycle_ids = self.waits_for.find_cycle_through(request.owner.id)
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
