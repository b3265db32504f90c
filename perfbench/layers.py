"""Per-layer metrics, computed from one traced replay at SSI and one at SI.

Layers are the ``src/repro`` packages on the serving path plus the driver
itself (``harness``).  Every metric is "better: lower" and carries no
bound: they explain the end-to-end numbers, they gate nothing.  A layer
the workload bypasses, or a target that no longer resolves, reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass

from perfbench.driver import Replay
from perfbench.spans import LAYERS, Tracer, self_times

PROGRAM_LAYERS = LAYERS[1:-1]

#: name -> unit, in the order BENCHMARK.json lists them
PER_LAYER: dict[str, str] = {
    **{f"{layer}.{stat}": unit
       for layer in PROGRAM_LAYERS
       for stat, unit in (("self_us_per_txn", "us"), ("calls_per_txn", "count"))},
    "harness.self_us_per_txn": "us",
    "engine.begin_us": "us",
    "engine.read_us": "us",
    "engine.write_us": "us",
    "engine.scan_us": "us",
    "engine.commit_us": "us",
    "engine.fcw_aborts_per_ktxn": "count",
    "cc.unsafe_aborts_per_ktxn": "count",
    "core.rw_edges_per_ktxn": "count",
    "core.certify_us_per_commit": "us",
    "locking.acquires_per_txn": "count",
    "locking.siread_per_txn": "count",
    "locking.waits_per_ktxn": "count",
    "locking.table_peak": "count",
    "locking.release_us_per_txn": "us",
    "engine.ssi_extra_us_per_txn": "us",
    "locking.ssi_extra_us_per_txn": "us",
    "core.ssi_extra_us_per_txn": "us",
    "mvcc.ssi_extra_us_per_txn": "us",
    "mvcc.visible_calls_per_txn": "count",
    "storage.rows_per_scan": "count",
    "storage.chunks_per_scan": "count",
    "storage.load_us_per_row": "us",
    "wal.appends_per_commit": "count",
    "wal.flushes_per_commit": "count",
    "wal.flush_us_per_commit": "us",
    "wal.bytes_per_commit": "B",
    "wal.bytes_per_user_byte": "ratio",
    "wal.recover_ms": "ms",
    "server.frames_per_txn": "count",
    "server.bytes_per_txn": "B",
    "server.codec_us_per_frame": "us",
    "server.dispatch_us_per_frame": "us",
    "client.codec_us_per_frame": "us",
    "client.rtt_us_p50": "us",
    "session.queue_us_per_op": "us",
    "session.exec_us_per_op": "us",
    "session.suspends_per_ktxn": "count",
    "trace.overhead_ratio": "ratio",
    "trace.unresolved_targets": "count",
}

#: metrics that are counts of deterministic events: for the embedded
#: workloads they must repeat exactly for a repeated seed
COUNT_METRICS = tuple(
    name for name, unit in PER_LAYER.items()
    if unit in ("count", "B") or name == "wal.bytes_per_user_byte"
)


@dataclass(slots=True)
class _Sum:
    calls: int = 0
    inclusive_ns: int = 0
    size: int = 0


class Profile:
    """One traced replay, summarised by layer and by (layer, method, tag)."""

    def __init__(self, tracer: Tracer, replay: Replay) -> None:
        self.tracer = tracer
        self.replay = replay
        self.transactions = len(replay.outcomes)
        spans = tracer.spans
        own = self_times(spans)
        layer_of = {span[0]: span[3] for span in spans}
        start, end = tracer.marks["replay_start"], tracer.marks["replay_end"]
        methods = [self._split(name) for name in tracer.names]
        self.self_ns: dict[str, int] = defaultdict(int)
        self.entries: dict[str, int] = defaultdict(int)
        #: (layer, method, tag, phase, nested) -> sums; phase is "run"
        #: inside the replay window and "rest" (set-up, recovery) outside
        #: it; nested spans were called from their own layer.
        self.sums: dict[tuple, _Sum] = defaultdict(_Sum)
        for sid, parent, _tid, layer_id, name_id, began, ended, _txn, size in spans:
            layer = LAYERS[layer_id]
            inside = began >= start and ended <= end
            nested = layer_of.get(parent) == layer_id
            if inside:
                self.self_ns[layer] += own[sid]
                self.entries[layer] += not nested
            method, tag = methods[name_id]
            entry = self.sums[layer, method, tag, "run" if inside else "rest", nested]
            entry.calls += 1
            entry.inclusive_ns += ended - began
            entry.size += size

    @staticmethod
    def _split(name: str) -> tuple[str, str | None]:
        """``Owner.method[tag]`` -> (method, tag)."""
        base, _, tag = name.partition("[")
        return base.rpartition(".")[2], tag.rstrip("]") or None

    def total(self, layer: str, methods: str, tag: str | None = None,
              phase: str = "run", entered: bool = False) -> _Sum:
        """Sum over the named methods of a layer.  ``entered`` keeps only
        calls that came from another layer, so a method that delegates to
        a sibling (``acquire_nowait`` -> ``acquire``) counts once."""
        result = _Sum()
        wanted = methods.split()
        for (a_layer, method, a_tag, a_phase, nested), entry in self.sums.items():
            if (a_layer == layer and method in wanted and a_phase == phase
                    and (tag is None or a_tag == tag)
                    and not (entered and nested)):
                result.calls += entry.calls
                result.inclusive_ns += entry.inclusive_ns
                result.size += entry.size
        return result


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean_us(entry: _Sum) -> float:
    return _ratio(entry.inclusive_ns / 1e3, entry.calls)


def layer_metrics(ssi: Profile, si: Profile, untraced_wall_ns: int) -> dict[str, float]:
    """Every PER_LAYER metric, from the SSI profile unless it says otherwise."""
    txns = ssi.transactions
    ktxns = txns / 1000
    commits = ssi.replay.commits
    outcomes = ssi.replay.outcomes
    values: dict[str, float] = {}

    for layer in PROGRAM_LAYERS:
        values[f"{layer}.self_us_per_txn"] = ssi.self_ns[layer] / 1e3 / txns
        values[f"{layer}.calls_per_txn"] = ssi.entries[layer] / txns
    values["harness.self_us_per_txn"] = ssi.self_ns["harness"] / 1e3 / txns
    for layer in ("engine", "locking", "core", "mvcc"):
        values[f"{layer}.ssi_extra_us_per_txn"] = (
            ssi.self_ns[layer] - si.self_ns[layer]) / 1e3 / txns

    values["engine.begin_us"] = _mean_us(ssi.total("engine", "begin", entered=True))
    values["engine.read_us"] = _mean_us(
        ssi.total("engine", "read get read_for_update", entered=True))
    values["engine.write_us"] = _mean_us(ssi.total("engine", "write insert delete", entered=True))
    scans = ssi.total("engine", "scan", entered=True)
    values["engine.scan_us"] = _mean_us(scans)
    commit_calls = ssi.total("engine", "commit", entered=True)
    values["engine.commit_us"] = _mean_us(commit_calls)
    values["engine.fcw_aborts_per_ktxn"] = outcomes.count("conflict") / ktxns
    values["cc.unsafe_aborts_per_ktxn"] = outcomes.count("unsafe") / ktxns

    values["core.rw_edges_per_ktxn"] = ssi.total("core", "mark_conflict").calls / ktxns
    certify = ssi.total("cc", "before_commit")
    if not certify.calls:
        certify = ssi.total("core", "check_commit")
    values["core.certify_us_per_commit"] = _ratio(
        certify.inclusive_ns / 1e3, commit_calls.calls)

    grants = "acquire acquire_nowait acquire_read_batch"
    values["locking.acquires_per_txn"] = ssi.total("locking", grants, entered=True).size / txns
    values["locking.siread_per_txn"] = ssi.total(
        "locking", grants, "siread", entered=True).size / txns
    values["locking.waits_per_ktxn"] = (
        ssi.replay.counters.get("locks", {}).get("waits", 0) / ktxns)
    values["locking.table_peak"] = ssi.replay.table_peak
    values["locking.release_us_per_txn"] = ssi.total(
        "locking", "release_all retain_all_reads drop_siread_locks", entered=True
    ).inclusive_ns / 1e3 / txns

    values["mvcc.visible_calls_per_txn"] = ssi.total(
        "mvcc", "visible", entered=True).calls / txns
    chunks = ssi.total("storage", "scan_chunks")
    values["storage.rows_per_scan"] = _ratio(chunks.size, scans.calls)
    # every scan's generator ends with one empty step after its last chunk
    values["storage.chunks_per_scan"] = _ratio(chunks.calls, scans.calls) - bool(scans.calls)
    values["storage.load_us_per_row"] = _mean_us(
        ssi.total("storage", "load", phase="rest"))

    appends = ssi.total("wal", "log_write log_commit log_abort")
    flushes = ssi.total("wal", "flush")
    values["wal.appends_per_commit"] = _ratio(appends.calls, commits)
    values["wal.flushes_per_commit"] = _ratio(flushes.calls, commits)
    values["wal.flush_us_per_commit"] = _ratio(flushes.inclusive_ns / 1e3, commits)
    values["wal.bytes_per_commit"] = _ratio(flushes.size, commits)
    values["wal.bytes_per_user_byte"] = _ratio(
        flushes.size, ssi.total("wal", "log_write").size)
    recovery = ssi.total("wal", "load recover_database", phase="rest")
    values["wal.recover_ms"] = recovery.inclusive_ns / 1e6

    for side in ("server", "client"):
        codec = ssi.total(side, "encode_frame decode_frame")
        values[f"{side}.codec_us_per_frame"] = _mean_us(codec)
        if side == "server":
            values["server.frames_per_txn"] = codec.calls / txns
            values["server.bytes_per_txn"] = codec.size / txns
            values["server.dispatch_us_per_frame"] = _ratio(
                ssi.total("server", "_dispatch").inclusive_ns / 1e3,
                len(ssi.tracer.invocations.get("ReproServer._dispatch", ())))
    round_trips = ssi.tracer.invocations.get("AsyncClient._call", [])
    values["client.rtt_us_p50"] = (
        statistics.median(round_trips) / 1e3 if round_trips else 0.0)

    handed = ssi.tracer.queue_ns
    values["session.queue_us_per_op"] = statistics.fmean(handed) / 1e3 if handed else 0.0
    values["session.exec_us_per_op"] = _ratio(
        ssi.total("session", "invocation").inclusive_ns / 1e3, len(handed))
    values["session.suspends_per_ktxn"] = ssi.total("session", "_suspend").calls / ktxns

    values["trace.overhead_ratio"] = _ratio(ssi.replay.wall_ns, untraced_wall_ns)
    values["trace.unresolved_targets"] = len(ssi.tracer.unresolved)
    return {name: float(values[name]) for name in PER_LAYER}
