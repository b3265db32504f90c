"""Golden-outcome equivalence for the CC-policy extraction.

``data/cc_equivalence.json`` was generated (by
``scripts/gen_cc_equivalence.py``) from the pre-refactor monolithic
engine: 60 seeded interleavings of conflict-prone scenarios, each run at
every isolation level, recording exactly who committed and who aborted
with which reason.  Replaying them against the policy-dispatch engine
proves the refactor is behaviour-preserving — same commits, same aborts,
same abort reasons, on every interleaving.
"""

import json
from pathlib import Path

import pytest

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.sim.interleave import run_interleaving
from repro.wal import WriteAheadLog
from repro.wal.recovery import replay

from scripts.gen_cc_equivalence import LEVELS, SCENARIOS

DATA = Path(__file__).parent / "data" / "cc_equivalence.json"
FACTORIES = dict(SCENARIOS)

with DATA.open() as handle:
    CASES = json.load(handle)["cases"]


def test_fixture_has_enough_coverage():
    assert len(CASES) >= 50
    assert {case["scenario"] for case in CASES} == set(FACTORIES)


@pytest.mark.parametrize(
    "case",
    CASES,
    ids=[f"{case['scenario']}-{case['seed']}" for case in CASES],
)
def test_outcomes_match_pre_refactor_engine(case):
    factory = FACTORIES[case["scenario"]]
    for level in LEVELS:
        setup, programs, _step_counts = factory()
        outcome = run_interleaving(
            setup,
            programs,
            case["order"],
            isolation=level,
            engine_config=EngineConfig(record_history=True),
        )
        got = {str(index): status for index, status in outcome.statuses.items()}
        assert got == case["outcomes"][level], (
            f"{case['scenario']} seed={case['seed']} diverged at {level}"
        )


def committed_state(db):
    """Every table's committed rows, read through one SI snapshot."""
    reader = db.begin("si")
    state = {name: db.scan(reader, name) for name in sorted(db._tables)}
    db.commit(reader)
    return state


@pytest.mark.parametrize(
    "case",
    CASES,
    ids=[f"{case['scenario']}-{case['seed']}" for case in CASES],
)
def test_outcomes_match_with_a_durable_log(case):
    """With a log attached every writing commit appends under the
    commit latch and waits for a flush that covers its LSN.  That path
    must admit exactly the golden histories, and a crash after the
    schedule must lose none of them: replaying the durable log over the
    setup state rebuilds the committed state of every table."""
    factory = FACTORIES[case["scenario"]]
    for level in LEVELS:
        setup, programs, _step_counts = factory()
        wal = WriteAheadLog()
        outcome = run_interleaving(
            setup,
            programs,
            case["order"],
            isolation=level,
            engine_config=EngineConfig(record_history=True),
            db_factory=lambda config: Database(config, wal=wal),
        )
        got = {str(index): status for index, status in outcome.statuses.items()}
        assert got == case["outcomes"][level], (
            f"{case['scenario']} seed={case['seed']} diverged at {level} "
            f"with a durable log"
        )
        expected = committed_state(outcome.db)
        wal.crash()
        base = Database(EngineConfig())
        setup(base)
        recovered = replay(wal, base=base)
        assert committed_state(recovered) == expected, (
            f"{case['scenario']} seed={case['seed']} at {level}: "
            f"recovery lost or invented a commit"
        )


@pytest.mark.parametrize(
    "case",
    CASES,
    ids=[f"{case['scenario']}-{case['seed']}" for case in CASES],
)
def test_outcomes_match_with_small_chunks(case, monkeypatch):
    """The golden outcomes were recorded before scans were chunked, so
    they are the semantics reference for the scan kernel: forced into
    2-row chunks, so every scan drops the table latch mid-range, every
    golden outcome — who committed, who aborted, with which reason — is
    unchanged at every isolation level."""
    monkeypatch.setattr("repro.storage.table.SCAN_CHUNK_SIZE", 2)
    factory = FACTORIES[case["scenario"]]
    for level in LEVELS:
        setup, programs, _step_counts = factory()
        outcome = run_interleaving(
            setup,
            programs,
            case["order"],
            isolation=level,
            engine_config=EngineConfig(record_history=True),
        )
        got = {str(index): status for index, status in outcome.statuses.items()}
        assert got == case["outcomes"][level], (
            f"{case['scenario']} seed={case['seed']} diverged at {level} "
            f"with 2-row chunks"
        )
