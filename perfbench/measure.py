"""One benchmark run: the timed end-to-end mode and the traced per-layer mode.

``--trace 0`` alternates untraced SSI and SI replays of the seeded program
sequence until the time is spent, audits one more replay, and reports the
end-to-end metrics.  ``--trace 1`` does one untraced and two traced replays
and reports the per-layer metrics.  Either way the run leaves a side-car
with its diagnostics under ``bench-out/`` and compares itself with the
side-car an earlier process left for the same code and seed.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import audit, driver, estimate, layers, spans
from perfbench.workloads import Program, Workload, generate

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench-out"
LEVELS = ("ssi", "si")
#: a run always makes this many replays per level, however short --seconds
MIN_REPLAYS = 2

#: name -> unit, as BENCHMARK.json lists them
END_TO_END = {
    "commits_per_s": "1/s",
    "si_commits_per_s": "1/s",
    "ssi_over_si": "ratio",
    "query_p50_ms": "ms",
    "update_p50_ms": "ms",
    "txn_p90_ms": "ms",
    "commit_fraction": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass(slots=True)
class Outcome:
    values: dict[str, float]
    units: dict[str, str]
    replays: list[driver.Replay]
    problems: list[str] = field(default_factory=list)
    #: what must repeat exactly in another process with the same seed
    deterministic: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def _replayer(workload: Workload, programs: list[Program],
              loop: asyncio.AbstractEventLoop):
    """replay(level, tracer=None, audit=False) for this workload."""
    if workload.driver == "wire":
        return lambda level, **options: driver.replay_wire(
            workload, programs, level, loop, **options)
    wal_path = None
    if workload.durable:
        wal_path = str(OUT / f"wal-{workload.name}-{os.getpid()}.log")
    return lambda level, **options: driver.replay_embedded(
        workload, programs, level, wal_path, **options)


# ------------------------------------------------------------- end to end


def run_timed(workload: Workload, programs: list[Program], replay,
              seconds: float) -> Outcome:
    """Alternate SSI and SI replays until ``seconds`` are spent, then audit."""
    installed = spans.installed_wrappers()
    if installed:
        raise RuntimeError(f"tracer wrappers are installed in a timed run: {installed}")
    replays = {level: [] for level in LEVELS}
    started = time.perf_counter()
    while True:
        for level in LEVELS:
            replays[level].append(replay(level))
        rounds = len(replays["ssi"])
        elapsed = time.perf_counter() - started
        if rounds >= MIN_REPLAYS and elapsed + 0.5 * elapsed / rounds > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ssi, si = replays["ssi"], replays["si"]
    latency = estimate.minimum_latencies([r.latency_ns for r in ssi])
    committed = [(program.is_query, sample)
                 for program, sample in zip(programs, latency) if sample is not None]
    queries = [sample for is_query, sample in committed if is_query]
    updates = [sample for is_query, sample in committed if not is_query]
    everything = queries + updates

    def goodput(level_replays):
        return estimate.throughput_per_s(
            [r.completions_ns for r in level_replays],
            [r.commits for r in level_replays])

    commits_per_s, si_commits_per_s = goodput(ssi), goodput(si)
    outcome = Outcome(
        values={
            "commits_per_s": commits_per_s,
            "si_commits_per_s": si_commits_per_s,
            "ssi_over_si": commits_per_s / si_commits_per_s,
            "query_p50_ms": estimate.percentile(queries, 0.50) / 1e6,
            "update_p50_ms": estimate.percentile(updates, 0.50) / 1e6,
            "txn_p90_ms": estimate.percentile(everything, 0.90) / 1e6,
            "commit_fraction": statistics.median(r.commits for r in ssi) / len(programs),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": min(r.setup_ns for r in ssi + si) / 1e9,
        },
        units=END_TO_END,
        replays=ssi + si,
    )

    if workload.driver == "embedded":
        for level in LEVELS:
            digests = {r.digest for r in replays[level]}
            if len(digests) != 1:
                outcome.problems.append(
                    f"{level} replays of one sequence disagree: "
                    f"{len(digests)} outcome digests")
            outcome.deterministic[f"digest_{level}"] = min(digests)
        outcome.deterministic["commit_fraction"] = outcome.values["commit_fraction"]
    audited = replay("ssi", audit=True)
    outcome.problems += audit.check_replay(workload, audited)
    if workload.driver == "embedded" and audited.digest != ssi[0].digest:
        outcome.problems.append(
            "the audit replay's outcome digest differs from the timed replays'")

    outcome.diagnostics = {
        "replays_per_level": len(ssi),
        "transactions_per_replay": len(programs),
        "clients": workload.clients,
        "latency_samples": {"query": len(queries), "update": len(updates),
                            "beyond_p90": estimate.samples_beyond(len(everything), 0.90)},
        "aborts_ssi": _abort_counts(ssi[0]),
        "aborts_si": _abort_counts(si[0]),
        "raw_wall_s": {level: [r.wall_ns / 1e9 for r in replays[level]]
                       for level in LEVELS},
        "quiet_wall_s": {level: estimate.quiet_duration_ns(
            [r.completions_ns for r in replays[level]]) / 1e9 for level in LEVELS},
        "setup_s": [r.setup_ns / 1e9 for r in outcome.replays],
        "timed_s": elapsed,
    }
    return outcome


def _abort_counts(replay: driver.Replay) -> dict[str, int]:
    return {outcome: replay.outcomes.count(outcome)
            for outcome in sorted(set(replay.outcomes)) if outcome != "commit"}


# -------------------------------------------------------------- per layer


def run_traced(workload: Workload, replay, seed: int) -> Outcome:
    """One untraced SSI replay, one traced at SSI, one traced at SI."""
    untraced = replay("ssi")
    profiles = {}
    for level in LEVELS:
        tracer = spans.Tracer()
        tracer.install()
        try:
            profiles[level] = layers.Profile(tracer, replay(level, tracer=tracer))
        finally:
            tracer.remove()
    traced = profiles["ssi"].replay
    outcome = Outcome(
        values=layers.layer_metrics(profiles["ssi"], profiles["si"], untraced.wall_ns),
        units=layers.PER_LAYER,
        replays=[untraced, traced, profiles["si"].replay],
    )

    leftover = spans.installed_wrappers()
    if leftover:
        outcome.problems.append(f"tracer wrappers still installed: {leftover}")
    if workload.driver == "embedded":
        if traced.digest != untraced.digest:
            outcome.problems.append(
                "tracing changed the execution: the traced and the untraced "
                "SSI replay have different outcome digests")
        outcome.deterministic = {
            name: outcome.values[name] for name in layers.COUNT_METRICS}
        outcome.deterministic["digest_ssi"] = traced.digest
        outcome.deterministic["digest_si"] = profiles["si"].replay.digest

    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    with open(path, "w") as handle:
        json.dump({level: profiles[level].tracer.dump() for level in LEVELS},
                  handle, separators=(",", ":"))
    outcome.diagnostics = {
        "trace_file": str(path.relative_to(ROOT)),
        "spans": {level: len(profiles[level].tracer.spans) for level in LEVELS},
        "unresolved": profiles["ssi"].tracer.unresolved,
        "wall_s": {"untraced_ssi": untraced.wall_ns / 1e9,
                   "traced_ssi": traced.wall_ns / 1e9,
                   "traced_si": profiles["si"].replay.wall_ns / 1e9},
        "self_time_share_of_wall": {
            layer: profiles["ssi"].self_ns[layer] / traced.wall_ns
            for layer in spans.LAYERS},
    }
    return outcome


# ----------------------------------------------------------------- report


def _fingerprint() -> str:
    """Hash of the program's and the benchmark's sources: results of two
    processes are only compared when both ran the same code."""
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")) + sorted(
            Path(__file__).parent.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _differences_from_earlier(sidecar: Path, fingerprint: str,
                              deterministic: dict) -> list[str]:
    """A process that ran the same code on the same seed before must have
    produced the same digests and counts."""
    try:
        earlier = json.loads(sidecar.read_text())
    except (OSError, ValueError):
        return []
    if earlier.get("fingerprint") != fingerprint:
        return []
    before = earlier.get("deterministic", {})
    return [f"{name} was {before[name]!r} in an earlier process with this seed, "
            f"now {value!r}"
            for name, value in deterministic.items()
            if name in before and before[name] != value]


def run(workload: Workload, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    """Run once; returns the result object and the problems found."""
    OUT.mkdir(exist_ok=True)
    programs = generate(workload, seed)
    loop = asyncio.new_event_loop()
    try:
        replay = _replayer(workload, programs, loop)
        if trace:
            outcome = run_traced(workload, replay, seed)
        else:
            outcome = run_timed(workload, programs, replay, seconds)
    finally:
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()

    attempted = sum(len(r.outcomes) for r in outcome.replays)
    failed = sum(r.failed for r in outcome.replays)
    problems = outcome.problems
    if failed:
        problems.append(f"{failed} of {attempted} transactions failed")
    fingerprint = _fingerprint()
    sidecar = OUT / f"perfbench-{workload.name}-seed{seed}-trace{trace}.json"
    problems += _differences_from_earlier(sidecar, fingerprint, outcome.deterministic)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": outcome.values[name], "unit": unit}
                    for name, unit in outcome.units.items()},
    }
    sidecar.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "trace": trace,
        "seconds": seconds, "fingerprint": fingerprint,
        "deterministic": outcome.deterministic,
        "diagnostics": outcome.diagnostics,
        "problems": problems, "result": result,
    }, indent=1))
    return result, problems
