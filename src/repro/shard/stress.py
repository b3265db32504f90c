"""Sharded stress runner with the merged-MVSG oracle.

The sharded twin of :func:`repro.exec.stress.run_threaded_stress`:
client threads drive SmallBank programs through a
:class:`~repro.shard.coordinator.Coordinator`, mixing single-shard
programs (one customer — the partition map co-locates their rows) with
cross-shard Amalgamate transfers between customers on different shards
at a configurable ratio.  After the run, every shard is audited for
residual lock-table state and the per-shard histories are merged and
certified serializable (:mod:`repro.shard.audit`) — the oracle that
would catch a cross-shard dangerous structure slipping past 2PC
certification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Generator

from repro.exec.stress import drive_threads
from repro.shard.audit import CrossShardReport, check_merged_serializable
from repro.shard.coordinator import Coordinator
from repro.shard.partition import PartitionMap
from repro.workloads import smallbank

__all__ = ["ShardedStressResult", "run_sharded_stress"]


@dataclass(slots=True)
class ShardedStressResult:
    """Outcome of one sharded stress run, including both oracles."""

    shards: int
    threads: int
    txns: int
    commits: int
    aborts: int
    aborts_by_reason: dict
    #: transactions whose program was the cross-shard Amalgamate
    cross_shard_attempted: int
    wall_clock_s: float
    serializable: bool
    cycle: list
    #: per-shard residual-state audits (see LocalShard.audit)
    shard_audits: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @property
    def lock_tables_clean(self) -> bool:
        return all(
            audit["granted"] == 0 and audit["owners"] == 0
            and audit["waiters"] == 0 and audit["siread"] == 0
            and audit["prepared"] == 0
            for audit in self.shard_audits
        )

    @property
    def throughput(self) -> float:
        return self.commits / self.wall_clock_s if self.wall_clock_s > 0 else 0.0

    def describe(self) -> str:
        verdict = "serializable" if self.serializable else "NON-SERIALIZABLE"
        return (
            f"sharded x{self.shards} @{self.threads}thr: {self.commits} "
            f"commits / {self.aborts} aborts in {self.wall_clock_s:.2f}s "
            f"({verdict}, {'clean' if self.lock_tables_clean else 'DIRTY'} "
            f"lock tables)"
        )


def _single_shard_program(rng: random.Random, customers: int) -> Generator:
    """One-customer SmallBank program — single-shard under the aligned
    partition map."""
    name = smallbank.customer_name(rng.randrange(customers))
    amount = float(rng.randint(1, 100))
    choice = rng.randrange(4)
    if choice == 0:
        return smallbank.balance(name)
    if choice == 1:
        return smallbank.deposit_checking(name, amount)
    if choice == 2:
        return smallbank.transact_saving(name, amount)
    return smallbank.write_check(name, amount)


def _cross_shard_pair(rng: random.Random, customers: int,
                      pmap: PartitionMap) -> tuple[str, str]:
    for _ in range(64):
        a = rng.randrange(customers)
        b = rng.randrange(customers)
        if (pmap.shard_of(smallbank.SAVING, a)
                != pmap.shard_of(smallbank.SAVING, b)):
            return smallbank.customer_name(a), smallbank.customer_name(b)
    # Degenerate map (e.g. one shard): fall back to any pair.
    return (smallbank.customer_name(0),
            smallbank.customer_name(customers - 1))


def run_sharded_stress(
    coordinator: Coordinator,
    *,
    customers: int = 64,
    threads: int = 4,
    txns_per_thread: int = 40,
    cross_ratio: float = 0.25,
    seed: int = 20080501,
    level: str = "ssi",
    setup: bool = True,
    partition_map: PartitionMap | None = None,
) -> ShardedStressResult:
    """Drive a mixed single-/cross-shard SmallBank load and certify it.

    ``partition_map`` defaults to the coordinator's own map and is used
    to pick genuinely cross-shard Amalgamate pairs; it should be (or
    match) :func:`~repro.shard.partition.smallbank_partition_map` for
    the single-shard programs to actually stay single-shard.
    """
    pmap = partition_map or coordinator.partition_map
    if setup:
        smallbank.setup_smallbank(coordinator, customers)

    totals = {"commits": 0, "aborts": 0, "cross": 0}
    aborts_by_reason: dict = {}

    def next_program(rng: random.Random) -> tuple[bool, Generator]:
        if rng.random() < cross_ratio:
            name1, name2 = _cross_shard_pair(rng, customers, pmap)
            return True, smallbank.amalgamate(name1, name2)
        return False, _single_shard_program(rng, customers)

    def tally(cross: bool, reason: str | None) -> None:
        totals["cross"] += cross
        if reason is None:
            totals["commits"] += 1
        else:
            totals["aborts"] += 1
            aborts_by_reason[reason] = aborts_by_reason.get(reason, 0) + 1

    wall = drive_threads(coordinator, level, threads, txns_per_thread, seed,
                         next_program, tally)

    report: CrossShardReport = check_merged_serializable(
        coordinator.shard_histories()
    )
    return ShardedStressResult(
        shards=len(coordinator.backends),
        threads=threads,
        txns=threads * txns_per_thread,
        commits=totals["commits"],
        aborts=totals["aborts"],
        aborts_by_reason=aborts_by_reason,
        cross_shard_attempted=totals["cross"],
        wall_clock_s=wall,
        serializable=report.serializable,
        cycle=report.cycle,
        shard_audits=coordinator.audit_shards(),
        metrics=coordinator.metrics.snapshot(),
    )
