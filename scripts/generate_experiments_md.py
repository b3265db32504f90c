#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: run every figure experiment and record the
measured series next to the paper's expectation.

Usage: python scripts/generate_experiments_md.py [--quick]
"""

import argparse
import datetime
import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.bench.experiments import FIGURES  # noqa: E402
from repro.bench.harness import run_experiment  # noqa: E402
from repro.bench.report import format_error_table, format_throughput_table  # noqa: E402

HEADER = """\
# EXPERIMENTS — paper vs. measured

Generated by `scripts/generate_experiments_md.py`.  Every figure of the
paper's evaluation chapter is regenerated by the discrete-event harness
described in DESIGN.md ("Substitutions"): the concurrency control is the
real algorithm, the passage of time is simulated, so the comparison
target is the *shape* of each result — which isolation level wins, by
roughly what factor, and where behaviour changes — not absolute
transactions/second (the paper's testbed is a 2006 single-core machine
running C engines).

Summary of how the reproduction matches the paper:

* **Fig 6.1** (SmallBank, no I/O): SI and Serializable SI coincide and
  exceed S2PL by an order of magnitude or more at MPL >= 10; SSI's new
  "unsafe" errors appear while SI shows only FCW conflicts.  Matches.
  (Our S2PL collapses harder than the paper's ~10x because the simulated
  0.5 s periodic deadlock sweep freezes its convoys completely.)
* **Fig 6.2/6.3** (log flush): all levels scale with MPL through group
  commit; S2PL drops behind once deadlock stalls bite.  Matches.
* **Fig 6.4/6.5** (low contention): S2PL ~ SI; Serializable SI a little
  below from page-granularity false positives.  Matches (gap size
  depends on the page-size knob).
* **Figs 6.6-6.11** (sibench): SI and Serializable SI within a few
  percent of each other at every table size; S2PL behind both from
  MPL 5 up (100 items, MPL 20: SI 6 326, SSI 6 612, S2PL 2 806) because
  updates wait out concurrent queries and queries wait for in-flight
  updates.  The paper's SSI falls away from SI as the table grows,
  because its InnoDB prototype took a SIREAD and a gap lock per row
  scanned; here a scan holds one key-range lock whatever its size, so
  that per-row lock cost — and the divergence with table size — does
  not reproduce.  At MPL 1 all three levels coincide.
* **Figs 6.12-6.16** (TPC-C++): Serializable SI within ~10% of SI in the
  standard configurations; S2PL behind at higher MPL; tiny scaling
  shifts aborts toward FCW conflicts at SI/SSI while S2PL blocks instead.
  Matches.
* **Figs 6.17/6.18** (Stock Level mix): SI leads; SSI and S2PL land
  together a few percent below it (10 warehouses, MPL 10: SI 215,
  SSI 205, S2PL 200; tiny data: 222 / 210 / 215).  Stock Level's
  order-line scan is one key range at every level, so SSI's remaining
  lock-manager cost is a SIREAD per stock row it reads by key, and
  S2PL's is its blocking waits.  The paper's "extreme case" where
  lock-manager traffic limits Serializable SI shows only mildly.

The per-figure tables below record one full run (seeds fixed, so the run
is reproducible bit-for-bit).
"""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="smaller grids (for smoke-testing this script)")
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "EXPERIMENTS.md"))
    args = parser.parse_args()

    buffer = io.StringIO()
    buffer.write(HEADER)
    buffer.write(f"\nRun date: {datetime.date.today().isoformat()}\n")

    for exp_id in sorted(FIGURES, key=lambda s: int(s.split(".")[1])):
        experiment = FIGURES[exp_id]()
        heavy = "W=10" in experiment.title or "10 warehouses" in experiment.title
        if args.quick:
            mpls = [1, 5]
        elif heavy:
            mpls = [1, 5, 10]
        else:
            mpls = [1, 5, 10, 20]
        print(f"running {exp_id} ({experiment.title}) mpls={mpls} ...",
              flush=True)
        outcome = run_experiment(experiment, mpls=mpls)
        buffer.write(f"\n## {exp_id} — {experiment.title}\n\n")
        buffer.write(f"Paper expectation: {experiment.expectation}\n\n")
        buffer.write("```\n")
        buffer.write(format_throughput_table(outcome))
        buffer.write("\n")
        buffer.write(format_error_table(outcome))
        buffer.write("\n```\n")

    with open(args.out, "w") as handle:
        handle.write(buffer.getvalue())
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
