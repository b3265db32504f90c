#!/usr/bin/env python
"""CI smoke for the sharded kernel (PR 8).

Boots a 2-shard :class:`~repro.shard.process.ShardCluster` (forked
shard servers, pipelined wire links), drives a mixed SmallBank load —
single-customer programs on the fast path plus cross-shard Amalgamate
transfers through 2PC — and then holds the run to both oracles: the
merged per-shard history must be MVSG-certified serializable and every
shard's lock table must drain clean at shutdown.

Usage::

    PYTHONPATH=src python scripts/sharded_smoke.py
    PYTHONPATH=src python scripts/sharded_smoke.py --threads 4 --txns 25
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.shard import (  # noqa: E402
    ShardCluster,
    run_sharded_stress,
    smallbank_partition_map,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--customers", type=int, default=32)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--txns", type=int, default=20,
                        help="transactions per client thread")
    parser.add_argument("--cross-ratio", type=float, default=0.25)
    args = parser.parse_args(argv)

    pmap = smallbank_partition_map(args.shards, args.customers)
    print(f"sharded smoke: {args.shards} shards, {args.threads} threads x "
          f"{args.txns} txns, {args.cross_ratio:.0%} cross-shard", flush=True)
    with ShardCluster(pmap) as cluster:
        result = run_sharded_stress(
            cluster.coordinator,
            customers=args.customers,
            threads=args.threads,
            txns_per_thread=args.txns,
            cross_ratio=args.cross_ratio,
        )
    print(f"  {result.describe()}")
    counters = result.metrics["counters"]["coordinator"]
    print(f"  fast path: {counters['single_shard_commits']} commits, "
          f"2PC: {counters['cross_shard_commits']} commits / "
          f"{counters['cross_shard_unsafe']} certification aborts, "
          f"{counters['escalation_conflicts']} escalation conflicts",
          flush=True)

    problems = []
    if result.commits <= 0:
        problems.append("no transaction committed")
    if result.cross_shard_attempted <= 0:
        problems.append("no cross-shard transaction was attempted")
    if result.commits + result.aborts != result.txns:
        problems.append(
            f"lost transactions ({result.commits + result.aborts}"
            f"/{result.txns})"
        )
    if not result.serializable:
        problems.append(
            "merged history NON-SERIALIZABLE: "
            + " -> ".join(str(node) for node in result.cycle)
        )
    if not result.lock_tables_clean:
        problems.append(f"dirty shard lock tables: {result.shard_audits}")
    if problems:
        print(f"sharded smoke FAILED: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("sharded smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
