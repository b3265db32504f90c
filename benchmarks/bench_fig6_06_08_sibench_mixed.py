"""Figures 6.6-6.8 — InnoDB sibench, mixed workload (1 query : 1 update),
table sizes 10 / 100 / 1000 rows.

Paper result: SI is the fastest at every size; Serializable SI tracks it
closely at 10 items but falls away as the table grows (the query must
take one SIREAD lock — plus a gap lock — per row, and that lock-manager
activity is the algorithm's intrinsic cost); S2PL is hurt at every size
because queries stall behind updates committing their log flush, and
updates stall behind query read locks.

This reproduction locks a scan's predicate with one key range, so the
per-row lock cost the paper's InnoDB prototype paid is gone: SSI stays
within a few percent of SI at every table size, and S2PL — one SHARED
range per query — trails both because updates still wait out every
concurrent query and queries every in-flight update.
"""

import pytest

from repro.bench.experiments import fig6_6, fig6_7, fig6_8

from conftest import run_figure

MPLS = [1, 5, 10, 20]


@pytest.mark.benchmark(group="fig6.6")
def test_fig6_6_sibench_10_items(benchmark):
    outcome = run_figure(benchmark, fig6_6(), MPLS)
    # Small table: SSI ~ SI, both clearly above S2PL.
    assert outcome.throughput("ssi", 20) > outcome.throughput("si", 20) * 0.85
    assert outcome.throughput("si", 20) > outcome.throughput("s2pl", 20) * 1.5
    # sibench has no write skew or deadlocks: nothing rolls back.
    for level in ("si", "ssi", "s2pl"):
        assert outcome.result(level, 20).cc_aborts == 0


@pytest.mark.benchmark(group="fig6.7")
def test_fig6_7_sibench_100_items(benchmark):
    outcome = run_figure(benchmark, fig6_7(), MPLS)
    si, ssi, s2pl = (outcome.throughput(level, 20) for level in ("si", "ssi", "s2pl"))
    # One range per query: SSI within a few percent of SI.
    assert abs(ssi - si) < si * 0.1
    assert min(si, ssi) > s2pl * 1.5


@pytest.mark.benchmark(group="fig6.8")
def test_fig6_8_sibench_1000_items(benchmark):
    outcome = run_figure(benchmark, fig6_8(), [1, 5, 10])
    si, ssi, s2pl = (outcome.throughput(level, 10) for level in ("si", "ssi", "s2pl"))
    # Large table: still no per-row lock cost for SSI to pay, while
    # S2PL's queries and updates keep waiting on each other.
    assert abs(ssi - si) < si * 0.1
    assert min(si, ssi) > s2pl * 1.1
