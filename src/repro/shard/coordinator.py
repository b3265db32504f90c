"""The sharding coordinator: routing, snapshot cuts, cross-shard SSI.

One coordinator fronts N shard backends and presents the same surface
as :class:`~repro.engine.database.Database` (``begin``/``read``/
``write``/``scan``/``commit``/...), so the existing executors — the
direct runner, the exhaustive interleaving driver, the stress harness —
drive a sharded deployment unchanged.

**Single-shard fast path.**  A transaction whose footprint stayed on
one shard commits with a single ``commit`` call to that shard: the
shard's own SSI machinery (conflict tracker, dangerous-structure check,
first-committer-wins) is precise there, and no coordinator state needs
updating, so the fast path adds zero extra round trips.

**Cross-shard 2PC + certification.**  A multi-shard commit PREPAREs on
every participant.  Each shard certifies its local part
(:meth:`~repro.engine.database.Database.prepare_for_commit`) and votes
with its rw-antidependency summary: ``in``/``out`` flags plus the
*global* ids of the conflicting partners where the reference tracker
still knows them.  A shard sees only the edges that live on its keys —
a pivot whose incoming edge is on shard 0 and outgoing edge on shard 1
looks harmless to both.  The coordinator merges the votes and applies
the paper's Section 3.2 test to the union: if the merged flags show
both an incoming and an outgoing rw-antidependency *and* more than one
shard contributed flags, the transaction is a potential cross-shard
pivot and is aborted before any shard commits.  (When a single shard
reported every flag, that shard's own precise check already ran at
PREPARE and passed, so the coordinator trusts it — this keeps the
fast-path-equivalent behaviour for skewed footprints.)  On commit the
merged flags are imported back into every participant's conflict slots
(:meth:`~repro.engine.database.Database.commit_prepared`), so edges
discovered on one shard keep endangering later transactions on the
others — flags travel with the commit record, as in Ports & Grittner.

**Consistent snapshot cuts.**  Shards allocate snapshots independently;
without coordination a transaction could see cross-shard commit C on
shard 0 but miss it on shard 1 (a torn snapshot).  The coordinator
therefore keeps a commit-sequence vector ``_csn`` (one counter per
shard, bumped atomically for all participants of a cross-shard commit)
and per-shard *apply gates* held from before the bump until every
participant finished ``commit_prepared``.  A transaction records the
vector as its ``view`` at first touch and must observe
``_csn[s] == view[s]`` when it enters any shard ``s`` — checked before
the shard ``begin`` (early exit) and re-checked after its first
operation completes, which is when the shard snapshot is definitely
pinned (deferred snapshots pin on the first statement).  A mismatch
aborts everywhere with a retryable
:class:`~repro.errors.UpdateConflictError` ("snapshot escalation
conflict") — the read-only-anomaly-style price of lazy cuts: instead of
freezing a global snapshot up front, a transaction pays only when it
*actually* escalates across a concurrent cross-shard commit.
Single-shard commits never touch the vector: they are atomic within
their shard and cannot tear.

Latch discipline: ``_vis_latch`` (the vector latch) is a true latch —
never held across an RPC.  The apply gates *are* held across the
``commit_prepared`` fan-out by design; they are the serialization
point between "commit becoming visible" and "transaction taking its
first look at a shard", and they order commits, not engine internals.
Gate-holders never wait on row locks (``commit_prepared`` is
unconditional), so gates cannot join lock-wait cycles.  Distributed
deadlocks between cross-shard *operations* are invisible to the
per-shard detectors; deployments mitigate them with the engine's
``lock_timeout`` (InnoDB-style), which surfaces as a retryable abort.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from typing import Any, Hashable, Sequence

from repro.engine.isolation import IsolationLevel
from repro.errors import (
    TransactionAbortedError,
    TransactionStateError,
    UnsafeError,
    UpdateConflictError,
)
from repro.obs.registry import MetricsRegistry
from repro.shard.partition import PartitionMap

__all__ = ["Coordinator", "GlobalTransaction"]


class GlobalTransaction:
    """Coordinator-side transaction handle.

    Duck-types the slice of :class:`~repro.engine.transaction.Transaction`
    the executors use: ``id``, ``is_active``-family properties,
    ``commit``/``abort`` and the context manager.  A wait surfaced by a
    local backend names the shard's own transaction as its owner, so
    :func:`~repro.engine.transaction.block_on` waits on it under that
    shard's timeout and deadlock settings.
    """

    __slots__ = ("id", "isolation", "read_only", "status", "parts",
                 "entered", "view", "_coordinator")

    def __init__(self, coordinator: "Coordinator", gtid: int,
                 isolation: IsolationLevel, read_only: bool) -> None:
        self._coordinator = coordinator
        self.id = gtid
        self.isolation = isolation
        self.read_only = read_only
        self.status = "active"
        #: shard index -> shard-local transaction id
        self.parts: dict[int, int] = {}
        #: shards whose first operation completed (snapshot cut validated)
        self.entered: set[int] = set()
        #: the commit-sequence vector at first touch (None until then)
        self.view: list[int] | None = None

    @property
    def is_active(self) -> bool:
        return self.status == "active"

    @property
    def is_committed(self) -> bool:
        return self.status == "committed"

    @property
    def is_aborted(self) -> bool:
        return self.status == "aborted"

    def commit(self) -> None:
        self._coordinator.commit(self)

    def abort(self) -> None:
        self._coordinator.abort(self)

    def __enter__(self) -> "GlobalTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None and self.is_active:
            self.commit()
        elif self.is_active:
            self.abort()
        return False

    def __repr__(self) -> str:
        return (f"GlobalTransaction(id={self.id}, status={self.status}, "
                f"parts={sorted(self.parts)})")


#: abort explanations retained for explain_abort (newest-first eviction)
_ABORT_MEMORY = 256

_2PC_EDGES = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5)


class Coordinator:
    """Route, certify and commit transactions over shard ``backends``
    according to ``partition_map``.

    ``certify=False`` disables the cross-shard merged-flag check (each
    shard still runs its local PREPARE certification) — the knob the
    regression tests use to demonstrate that ignoring PREPARE summaries
    admits non-serializable cross-shard executions.
    """

    def __init__(self, backends: Sequence, partition_map: PartitionMap, *,
                 certify: bool = True,
                 metrics: MetricsRegistry | None = None) -> None:
        if len(backends) != partition_map.shards:
            raise ValueError(
                f"{len(backends)} backends for a "
                f"{partition_map.shards}-shard partition map"
            )
        self.backends = list(backends)
        self.partition_map = partition_map
        self.certify = certify
        self.metrics = metrics or MetricsRegistry()
        self._ids = itertools.count(1)
        self._counters = self.metrics.group("coordinator", {
            "begins": 0,
            "single_shard_commits": 0,
            "cross_shard_commits": 0,
            "cross_shard_unsafe": 0,
            "escalation_conflicts": 0,
            "aborts": 0,
        })
        self._h_2pc = self.metrics.histogram("twopc_latency", edges=_2PC_EDGES)
        self._shard_txns = [0] * len(self.backends)
        self.metrics.register_gauge(
            "shard_txn_counts",
            lambda: {str(i): n for i, n in enumerate(self._shard_txns)},
        )
        #: commit-sequence vector: _csn[s] counts cross-shard commits
        #: applied to shard s.  Guarded by _vis_latch (a leaf latch,
        #: never held across an RPC).
        self._csn = [0] * len(self.backends)
        self._vis_latch = threading.Lock()
        #: apply gates — deliberately NOT latches: held across the
        #: commit_prepared fan-out (see module docstring).
        self._apply_gates = [threading.Lock() for _ in self.backends]
        self._aborts: OrderedDict[int, dict] = OrderedDict()
        self._abort_lock = threading.Lock()

    # ------------------------------------------------------------ admin

    def create_table(self, name: str) -> None:
        for backend in self.backends:
            backend.create_table(name)

    def load(self, table: str, rows) -> None:
        split: list[list] = [[] for _ in self.backends]
        for key, value in rows:
            split[self.partition_map.shard_of(table, key)].append((key, value))
        for shard, shard_rows in enumerate(split):
            if shard_rows:
                self.backends[shard].load(table, shard_rows)

    def sweep_deadlocks(self) -> list:
        victims: list = []
        for backend in self.backends:
            victims.extend(backend.sweep_deadlocks())
        return victims

    def close(self) -> None:
        for backend in self.backends:
            backend.close()

    # -------------------------------------------------------- lifecycle

    def begin(self, isolation: IsolationLevel | str = IsolationLevel.SERIALIZABLE_SSI,
              read_only: bool = False, deferrable: bool = False,
              ) -> GlobalTransaction:
        if deferrable:
            raise TransactionStateError(
                "deferrable transactions are not supported through the "
                "sharding coordinator"
            )
        txn = GlobalTransaction(
            self, next(self._ids), IsolationLevel.parse(isolation), read_only
        )
        self._counters.inc("begins")
        return txn

    def commit(self, txn: GlobalTransaction) -> None:
        self._check_active(txn)
        parts = sorted(txn.parts)
        if len(parts) <= 1:
            if parts:
                shard = parts[0]
                try:
                    self.backends[shard].commit(txn.id)
                except TransactionAbortedError as error:
                    raise self._failed(txn, shard, error)
            txn.status = "committed"
            self._counters.inc("single_shard_commits")
            return
        self._commit_cross(txn, parts)

    def abort(self, txn: GlobalTransaction, reason: str | None = None) -> None:
        if not txn.is_active:
            return
        txn.status = "aborted"
        self._abort_parts(txn, reason=reason)
        self._counters.inc("aborts")

    # ------------------------------------------------------ operations

    def read(self, txn: GlobalTransaction, table: str, key: Hashable) -> Any:
        shard = self.partition_map.shard_of(table, key)
        return self._on_shard(txn, shard, "read", table, key)

    def get(self, txn: GlobalTransaction, table: str, key: Hashable,
            default: Any = None) -> Any:
        shard = self.partition_map.shard_of(table, key)
        return self._on_shard(txn, shard, "get", table, key, default)

    def read_for_update(self, txn: GlobalTransaction, table: str,
                        key: Hashable) -> Any:
        shard = self.partition_map.shard_of(table, key)
        return self._on_shard(txn, shard, "read_for_update", table, key)

    def write(self, txn: GlobalTransaction, table: str, key: Hashable,
              value: Any) -> None:
        shard = self.partition_map.shard_of(table, key)
        return self._on_shard(txn, shard, "put", table, key, value)

    def insert(self, txn: GlobalTransaction, table: str, key: Hashable,
               value: Any) -> None:
        shard = self.partition_map.shard_of(table, key)
        return self._on_shard(txn, shard, "insert", table, key, value)

    def delete(self, txn: GlobalTransaction, table: str, key: Hashable) -> None:
        shard = self.partition_map.shard_of(table, key)
        return self._on_shard(txn, shard, "delete", table, key)

    def scan(self, txn: GlobalTransaction, table: str,
             lo: Hashable | None = None, hi: Hashable | None = None) -> list:
        rows: list = []
        for shard in self.partition_map.shards_for_scan(table, lo, hi):
            rows.extend(self._on_shard(txn, shard, "scan", table, lo, hi))
        return rows

    def index_scan(self, txn: GlobalTransaction, index: str,
                   lo: Hashable | None = None,
                   hi: Hashable | None = None) -> list:
        # Secondary indexes are not partitioned by index key: each shard
        # indexes its own rows, so an index read asks every shard.
        rows: list = []
        for shard in range(len(self.backends)):
            rows.extend(self._on_shard(txn, shard, "index_scan", index, lo, hi))
        rows.sort(key=lambda pair: pair[0])
        return rows

    def index_lookup(self, txn: GlobalTransaction, index: str,
                     key: Hashable) -> list:
        keys: list = []
        for shard in range(len(self.backends)):
            keys.extend(self._on_shard(txn, shard, "index_lookup", index, key))
        return keys

    # -------------------------------------------------------- oracles

    def explain_abort(self, gtid: int) -> dict:
        """The stored annotated explanation for an aborted global
        transaction (coordinator-certified aborts always have one;
        shard-certified ones need tracing on the shard)."""
        with self._abort_lock:
            payload = self._aborts.get(gtid)
        if payload is None:
            raise TransactionStateError(
                f"no abort explanation recorded for global txn {gtid}"
            )
        return payload

    def shard_histories(self) -> list[tuple[list, dict[int, int]]]:
        """Per-shard (records, gtid map) pairs for the merged oracle."""
        return [backend.history_records() for backend in self.backends]

    def audit_shards(self) -> list[dict[str, int]]:
        return [backend.audit() for backend in self.backends]

    # ------------------------------------------------------- internals

    def _check_active(self, txn: GlobalTransaction) -> None:
        if not txn.is_active:
            raise TransactionStateError(
                f"global txn {txn.id} is {txn.status}"
            )

    def _on_shard(self, txn: GlobalTransaction, shard: int, op: str,
                  *args) -> Any:
        """Run data operation ``op`` (a ``WIRE_OPS`` name: the backends
        speak the wire's vocabulary) on ``shard``, entering it first."""
        self._check_active(txn)
        if shard not in txn.parts:
            self._enter_shard(txn, shard)
        try:
            result = self.backends[shard].call(txn.id, op, *args)
        except TransactionAbortedError as error:
            raise self._failed(txn, shard, error)
        if shard not in txn.entered:
            # The shard snapshot is pinned no later than the end of the
            # first operation; re-check the cut now that it is fixed.
            # (LockWaitRequired unwinds before this point, so a retried
            # first op still validates.)
            txn.entered.add(shard)
            self._validate_entry(txn, shard)
        return result

    def _enter_shard(self, txn: GlobalTransaction, shard: int) -> None:
        gate = self._apply_gates[shard]
        if txn.view is None:
            # First touch of any shard: adopt the current vector as this
            # transaction's cut.  Holding the gate excludes a half-applied
            # cross-shard commit on *this* shard at capture time.
            with gate:
                with self._vis_latch:
                    txn.view = list(self._csn)
        else:
            with gate:
                with self._vis_latch:
                    stale = self._csn[shard] != txn.view[shard]
            if stale:
                raise self._escalation(txn, shard)
        local = self.backends[shard].begin(
            txn.id, txn.isolation, txn.read_only
        )
        txn.parts[shard] = local
        self._shard_txns[shard] += 1

    def _validate_entry(self, txn: GlobalTransaction, shard: int) -> None:
        with self._vis_latch:
            stale = self._csn[shard] != txn.view[shard]
        if stale:
            raise self._escalation(txn, shard)

    def _escalation(self, txn: GlobalTransaction,
                    shard: int) -> UpdateConflictError:
        self._abort_parts(txn)
        txn.status = "aborted"
        self._counters.inc("escalation_conflicts")
        self._counters.inc("aborts")
        error = UpdateConflictError(
            f"global txn {txn.id}: a cross-shard commit reached shard "
            f"{shard} after this transaction's snapshot cut (escalation "
            f"conflict); retry",
            txn_id=txn.id,
        )
        payload = {"reason": "conflict", "shard": shard, "text": str(error)}
        self._record_abort(txn.id, payload)
        error.explanation = payload  # type: ignore[attr-defined]
        return error

    def _failed(self, txn: GlobalTransaction, shard: int,
                error: TransactionAbortedError) -> TransactionAbortedError:
        """A shard aborted this transaction's part: roll back everywhere
        else, annotate, and hand the error back for re-raising."""
        local_id = txn.parts.get(shard)
        self._abort_parts(txn, exclude=shard)
        txn.status = "aborted"
        self._counters.inc("aborts")
        payload = getattr(error, "explanation", None)
        if payload is None and local_id is not None:
            payload = self.backends[shard].describe_abort(local_id)
        annotated = self._annotate(shard, payload, error)
        self._record_abort(txn.id, annotated)
        error.explanation = annotated  # type: ignore[attr-defined]
        error.txn_id = txn.id
        return error

    def _annotate(self, shard: int, payload: dict | None,
                  error: TransactionAbortedError) -> dict:
        if payload is None:
            return {
                "reason": getattr(error, "reason", "aborted"),
                "shard": shard,
                "text": str(error),
            }
        annotated = dict(payload)
        annotated["shard"] = shard
        gtids = payload.get("gtids") or {}
        pivot = payload.get("pivot")
        if pivot:
            annotated["pivot"] = {
                role: self._pivot_entry(shard, local, gtids)
                for role, local in pivot.items()
            }
        return annotated

    @staticmethod
    def _pivot_entry(shard: int, local: Any, gtids: dict) -> dict:
        entry = {"shard": shard, "local": local, "gtid": None}
        if isinstance(local, int):
            entry["gtid"] = gtids.get(str(local), gtids.get(local))
        return entry

    def _record_abort(self, gtid: int, payload: dict) -> None:
        with self._abort_lock:
            self._aborts[gtid] = payload
            while len(self._aborts) > _ABORT_MEMORY:
                self._aborts.popitem(last=False)

    def _abort_parts(self, txn: GlobalTransaction, exclude: int | None = None,
                     reason: str | None = None) -> None:
        for shard in txn.parts:
            if shard == exclude:
                continue
            try:
                self.backends[shard].abort(txn.id, reason)
            except (TransactionAbortedError, TransactionStateError):
                pass

    # ----------------------------------------------------- cross-shard

    def _commit_cross(self, txn: GlobalTransaction, parts: list[int]) -> None:
        start = time.perf_counter()
        waiters = [(s, self.backends[s].prepare_begin(txn.id)) for s in parts]
        votes: dict[int, dict] = {}
        failure: tuple[int, TransactionAbortedError] | None = None
        for shard, waiter in waiters:
            try:
                votes[shard] = waiter()
            except TransactionAbortedError as error:
                if failure is None:
                    failure = (shard, error)
        if failure is not None:
            shard, error = failure
            raise self._failed(txn, shard, error)

        merged_in = any(vote["in"] for vote in votes.values())
        merged_out = any(vote["out"] for vote in votes.values())
        flagged = [s for s in parts if votes[s]["in"] or votes[s]["out"]]
        if self.certify and merged_in and merged_out and len(flagged) > 1:
            raise self._cross_unsafe(txn, parts, votes, flagged)

        gates = [self._apply_gates[s] for s in parts]  # sorted: no cycles
        for gate in gates:
            gate.acquire()
        try:
            with self._vis_latch:
                for shard in parts:
                    self._csn[shard] += 1
            appliers = [
                (s, self.backends[s].commit_prepared_begin(
                    txn.id, merged_in, merged_out))
                for s in parts
            ]
            problems: list[tuple[int, BaseException]] = []
            for shard, waiter in appliers:
                try:
                    waiter()
                except Exception as error:  # noqa: BLE001
                    problems.append((shard, error))
        finally:
            for gate in reversed(gates):
                gate.release()
        if problems:
            shard, cause = problems[0]
            raise RuntimeError(
                f"commit_prepared failed on shard {shard} after the global "
                f"commit decision for txn {txn.id} — shards have diverged"
            ) from cause
        txn.status = "committed"
        self._counters.inc("cross_shard_commits")
        self._h_2pc.observe(time.perf_counter() - start)

    def _cross_unsafe(self, txn: GlobalTransaction, parts: list[int],
                      votes: dict[int, dict],
                      flagged: list[int]) -> UnsafeError:
        self._abort_parts(txn)
        txn.status = "aborted"
        self._counters.inc("cross_shard_unsafe")
        self._counters.inc("aborts")

        def partner(flag: str, kind: str) -> dict | None:
            for shard in parts:
                if votes[shard][flag]:
                    return {"shard": shard, "gtid": votes[shard][kind]}
            return None

        t_in = partner("in", "in_partner")
        t_out = partner("out", "out_partner")
        payload = {
            "reason": "unsafe",
            "pivot": {
                "t_in": t_in,
                "pivot": {"shard": flagged, "gtid": txn.id},
                "t_out": t_out,
            },
            "votes": {str(shard): votes[shard] for shard in parts},
            "text": (
                f"global txn {txn.id} is the pivot of a cross-shard "
                f"dangerous structure: "
                f"{t_in and t_in['gtid']} -rw-> {txn.id} -rw-> "
                f"{t_out and t_out['gtid']} (flags from shards {flagged})"
            ),
        }
        self._record_abort(txn.id, payload)
        error = UnsafeError(
            f"cross-shard unsafe: global txn {txn.id} has both an incoming "
            f"and an outgoing rw-antidependency spanning shards {flagged}",
            txn_id=txn.id,
        )
        error.explanation = payload  # type: ignore[attr-defined]
        return error
