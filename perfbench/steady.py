#!/usr/bin/env python3
"""How steady is the benchmark?  Two sets of ten seeds per workload.

    python3 perfbench/steady.py [--workload NAME ...] [--seconds 24] > table.md

For every end-to-end metric x workload it prints the spread of each set
(``statistics.quantiles(values, n=4)``: interquartile range over median,
as the driver computes it), the shift of the second set's median against
the first in the metric's worse direction, and the metric's bound from
BENCHMARK.json.  A spread above a third of the bound, a spread above the
bound, and a shift above the bound are flagged.  The second set runs after
the first, so a slow phase of the host that lasts minutes shows as shift.

Afterwards the first seed of every workload is run again, in both modes:
a run compares its outcome digests and counts with the side-car an earlier
process left for the same seed and reports ``correct: false`` on a mismatch
(the wire workload has no digest to compare; it is re-run all the same).

The output is committed as STEADINESS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.estimate import spread  # noqa: E402

SETS = 2
SEEDS_PER_SET = 10


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if completed.returncode:
        raise RuntimeError(f"{workload} seed {seed}: exit {completed.returncode}\n"
                           f"{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed, "
                           f"correct={result['correct']}\n{completed.stderr}")
    return result


def worsening(first: float, second: float, better: str) -> float:
    """By what share of the first median the second one is worse."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args()
    workloads = args.workload or names
    command = spec["command"]

    print("# perfbench steadiness\n")
    print(f"- host: {platform.node()} ({platform.machine()}, "
          f"{platform.python_implementation()} {platform.python_version()}), "
          f"nproc {os.cpu_count()}")
    print(f"- date: {time.strftime('%Y-%m-%d %H:%M %Z')}")
    print(f"- {SETS} sets x {SEEDS_PER_SET} seeds, `--seconds {args.seconds} "
          f"--trace 0`; set 2 runs after set 1\n")
    print("`!` spread above a third of the bound; `!!` spread or shift above "
          "the bound (the driver would refuse the benchmark).  The shift is "
          "positive when the second median is worse.  `setup_s` has no "
          "spread limit.\n")
    print("| workload | metric | bound | spread 1 | spread 2 | median 1 | median 2 | shift | |")
    print("|---|---|---|---|---|---|---|---|---|")

    refused = False
    for workload in workloads:
        sets = []
        for index in range(SETS):
            first = args.first_seed + index * SEEDS_PER_SET
            runs = [run_once(command, workload, seed, args.seconds, trace=0)
                    for seed in range(first, first + SEEDS_PER_SET)]
            sets.append(runs)
            print(f"{workload}: set {index + 1} done", file=sys.stderr)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[run["metrics"][name]["value"] for run in runs] for runs in sets]
            spreads = [spread(series) for series in values]
            medians = [statistics.median(series) for series in values]
            shift = worsening(medians[0], medians[1], metric["better"])
            flag = ""
            if name != "setup_s" and max(spreads) > bound / 3:
                flag = "!"
            if (name != "setup_s" and max(spreads) > bound) or shift > bound:
                flag, refused = "!!", True
            print(f"| {workload} | {name} | {bound} | {spreads[0]:.4f} | "
                  f"{spreads[1]:.4f} | {medians[0]:.6g} | {medians[1]:.6g} | "
                  f"{shift:+.4f} | {flag} |")
        sys.stdout.flush()

    print("\n## Repeated seed, second process\n")
    for workload in workloads:
        for trace in (0, 1):
            # set 1 already left a --trace 0 side-car for this seed
            for _ in range(1 + trace):
                run_once(command, workload, args.first_seed, args.seconds, trace)
            print(f"- {workload} `--trace {trace}`: digests and counts of seed "
                  f"{args.first_seed} repeat (`correct: true` in both processes)")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
