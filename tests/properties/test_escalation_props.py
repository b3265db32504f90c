"""Escalation soundness properties (PR 6).

``siread_budget`` replaces record SIREADs with page/table sentinels
whenever the lock table outgrows the budget.  The escalation contract is
one-sided: a coarse sentinel covers a *superset* of the fine ones it
replaced, so escalation may add false-positive rw-antidependency edges
but can never lose one.  Two consequences, checked here:

* with a budget tiny enough that nearly every read escalates, every
  committed interleaving must still satisfy the MVSG oracle — false
  positives abort transactions, they never admit anomalies;
* with a budget the workload can never reach, outcomes must be
  *identical* to the unbounded engine — replayed against the golden
  cc_equivalence fixture, the strictest behavioural diff we have.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.config import EngineConfig
from repro.sgt.checker import check_serializable
from repro.sim.interleave import run_interleaving

from scripts.gen_cc_equivalence import SCENARIOS

from tests.properties.test_engine_props import build_program, program_ops, setup

DATA = Path(__file__).parent / "data" / "cc_equivalence.json"

with DATA.open() as handle:
    CASES = json.load(handle)["cases"]

FACTORIES = dict(SCENARIOS)


@given(
    specs=st.lists(program_ops, min_size=2, max_size=3),
    seed=st.integers(0, 2**16),
    level=st.sampled_from(["ssi", "sgt"]),
)
@settings(max_examples=60, deadline=None)
def test_tiny_budget_interleavings_stay_serializable(specs, seed, level):
    """Budget 2 forces escalation on almost every multi-read program;
    the committed subset must stay serializable regardless."""
    rng = random.Random(seed)
    programs = [build_program(spec, f"T{i}") for i, spec in enumerate(specs)]
    steps = [len(spec) + 1 for spec in specs]
    slots = [i for i, count in enumerate(steps) for _ in range(count)]
    rng.shuffle(slots)
    outcome = run_interleaving(
        setup,
        programs,
        slots,
        isolation=level,
        engine_config=EngineConfig(
            record_history=True,
            siread_budget=2,
        ),
    )
    report = check_serializable(outcome.db.history)
    assert report.serializable, report.describe()


@pytest.mark.parametrize(
    "case",
    CASES,
    ids=[f"{case['scenario']}-{case['seed']}" for case in CASES],
)
def test_untripped_budget_matches_golden_fixture(case):
    """A budget far above any scenario's footprint must reproduce the
    golden ssi outcomes exactly — the budget knob is free until it
    actually trips."""
    factory = FACTORIES[case["scenario"]]
    setup_case, programs, _counts = factory()
    outcome = run_interleaving(
        setup_case,
        programs,
        case["order"],
        isolation="ssi",
        engine_config=EngineConfig(record_history=True, siread_budget=10**6),
    )
    got = {str(index): status for index, status in outcome.statuses.items()}
    assert got == case["outcomes"]["ssi"], (
        f"{case['scenario']} seed={case['seed']} diverged under huge budget"
    )
    assert outcome.db.locks.escalated_lock_count() == 0
