"""Coordinator over in-process shards: fast-path equivalence and
cross-shard SSI certification.

Three oracles drive this file:

* the 60-interleaving golden fixture (``tests/properties/data/
  cc_equivalence.json``) — a sharded deployment whose partition map pins
  every table to one shard must produce *exactly* the monolithic
  engine's outcomes at every isolation level (the single-shard fast
  path adds no behaviour);
* the canonical cross-shard write skew, where each shard sees only one
  half of the dangerous structure — the coordinator must abort the
  pivot from the merged PREPARE votes, and demonstrably commits a
  non-serializable history when told to ignore them (``certify=False``);
* the merged-MVSG checker over *every* interleaving of a 100%%
  cross-shard program pair — no order may slip a dangerous structure
  past 2PC certification.
"""

import json
from pathlib import Path

import pytest

from repro.engine.config import EngineConfig
from repro.errors import (
    CompletionWaitRequired,
    TableError,
    TransactionStateError,
    UnsafeError,
    UpdateConflictError,
)
from repro.shard import (
    Coordinator,
    LocalShard,
    PartitionMap,
    check_merged_serializable,
    run_sharded_stress,
    single_shard_map,
    smallbank_partition_map,
)
from repro.sim.interleave import exhaustive_outcomes, run_interleaving
from repro.sim.ops import Read, Write

from scripts.gen_cc_equivalence import LEVELS, SCENARIOS

DATA = Path(__file__).parent.parent / "properties" / "data" / "cc_equivalence.json"
FACTORIES = dict(SCENARIOS)

with DATA.open() as handle:
    CASES = json.load(handle)["cases"]


def _pinned_coordinator(config: EngineConfig) -> Coordinator:
    """Two shards, every table pinned to shard 0 — the fast-path rig."""
    return Coordinator(
        [LocalShard(config), LocalShard(config)], single_shard_map(2)
    )


@pytest.mark.parametrize(
    "case",
    CASES,
    ids=[f"{case['scenario']}-{case['seed']}" for case in CASES],
)
def test_single_shard_fast_path_matches_monolithic_engine(case):
    factory = FACTORIES[case["scenario"]]
    for level in LEVELS:
        setup, programs, _step_counts = factory()
        outcome = run_interleaving(
            setup,
            programs,
            case["order"],
            isolation=level,
            engine_config=EngineConfig(record_history=True),
            db_factory=_pinned_coordinator,
        )
        got = {str(index): status for index, status in outcome.statuses.items()}
        assert got == case["outcomes"][level], (
            f"sharded fast path diverged from the monolithic engine: "
            f"{case['scenario']} seed={case['seed']} at {level}"
        )


# --------------------------------------------------------- cross-shard SSI


def _split_cluster(certify: bool = True) -> Coordinator:
    """Table ``t`` split at "m": "a" lives on shard 0, "z" on shard 1."""
    coordinator = Coordinator(
        [LocalShard(), LocalShard()],
        PartitionMap(2, {"t": ["m"]}),
        certify=certify,
    )
    coordinator.create_table("t")
    coordinator.load("t", [("a", 0), ("z", 0)])
    return coordinator


def _run_write_skew(coordinator):
    """T1 reads both, writes z; T2 reads both, writes a.  Each shard
    sees exactly one rw-antidependency — the dangerous structure exists
    only in the union."""
    t1 = coordinator.begin("ssi")
    t2 = coordinator.begin("ssi")
    coordinator.read(t1, "t", "a")
    coordinator.read(t1, "t", "z")
    coordinator.read(t2, "t", "a")
    coordinator.read(t2, "t", "z")
    coordinator.write(t1, "t", "z", 1)
    coordinator.write(t2, "t", "a", 1)
    return t1, t2


def test_cross_shard_write_skew_aborts_the_pivot():
    coordinator = _split_cluster()
    t1, t2 = _run_write_skew(coordinator)
    with pytest.raises(UnsafeError) as info:
        coordinator.commit(t1)
    assert t1.is_aborted
    coordinator.commit(t2)
    assert t2.is_committed
    assert check_merged_serializable(coordinator.shard_histories()).serializable

    # The annotated pivot triple: partner gtids plus contributing shards.
    payload = info.value.explanation
    assert payload["reason"] == "unsafe"
    pivot = payload["pivot"]
    assert pivot["pivot"]["gtid"] == t1.id
    assert set(pivot["pivot"]["shard"]) == {0, 1}
    assert pivot["t_in"]["gtid"] == t2.id
    assert pivot["t_out"]["gtid"] == t2.id
    assert set(payload["votes"]) == {"0", "1"}
    # explain_abort returns the same payload after the fact.
    assert coordinator.explain_abort(t1.id) == payload

    counters = coordinator.metrics.snapshot()["counters"]["coordinator"]
    assert counters["cross_shard_unsafe"] == 1
    assert counters["cross_shard_commits"] == 1


def test_ignoring_prepare_summaries_commits_non_serializably():
    coordinator = _split_cluster(certify=False)
    t1, t2 = _run_write_skew(coordinator)
    # Each shard's local certification sees half the structure and lets
    # both through — the regression the merged-flag check exists for.
    coordinator.commit(t1)
    coordinator.commit(t2)
    report = check_merged_serializable(coordinator.shard_histories())
    assert not report.serializable
    assert {t1.id, t2.id} <= set(report.cycle)


def test_adversarial_interleavings_never_slip_a_dangerous_structure():
    """Every interleaving of a 100% cross-shard write-skew pair: with
    certification every merged history is serializable; without it (or
    under plain SI) some interleaving commits the anomaly."""

    def setup(db):
        db.create_table("acct")
        db.load("acct", [("a", 100), ("z", 100)])

    def p0():
        a = yield Read("acct", "a")
        z = yield Read("acct", "z")
        yield Write("acct", "z", a + z)

    def p1():
        a = yield Read("acct", "a")
        z = yield Read("acct", "z")
        yield Write("acct", "a", a + z)

    def factory(certify):
        def build(config):
            return Coordinator(
                [LocalShard(config), LocalShard(config)],
                PartitionMap(2, {"acct": ["m"]}),
                certify=certify,
            )

        return build

    certified = exhaustive_outcomes(
        setup, [p0, p1], [4, 4], isolation="ssi", db_factory=factory(True)
    )
    assert len(certified) == 70
    for outcome in certified:
        report = check_merged_serializable(outcome.db.shard_histories())
        assert report.serializable, (
            f"order {outcome.order} slipped a dangerous structure: "
            f"{report.describe()}"
        )
    # The fixture is not vacuous: the dangerous orders exist and abort.
    assert any(not outcome.all_committed for outcome in certified)
    assert any(outcome.all_committed for outcome in certified)

    uncertified = exhaustive_outcomes(
        setup, [p0, p1], [4, 4], isolation="ssi", db_factory=factory(False)
    )
    assert any(
        outcome.all_committed
        and not check_merged_serializable(
            outcome.db.shard_histories()
        ).serializable
        for outcome in uncertified
    ), "certify=False should admit the cross-shard write skew"

    plain_si = exhaustive_outcomes(
        setup, [p0, p1], [4, 4], isolation="si", db_factory=factory(True)
    )
    assert any(
        outcome.all_committed
        and not check_merged_serializable(
            outcome.db.shard_histories()
        ).serializable
        for outcome in plain_si
    ), "plain SI should exhibit the anomaly the merged oracle detects"


# ------------------------------------------------------- snapshot cuts


def test_escalating_across_a_cross_shard_commit_is_a_conflict():
    coordinator = _split_cluster()
    txn = coordinator.begin("ssi")
    assert coordinator.read(txn, "t", "a") == 0  # view pinned at [0, 0]

    other = coordinator.begin("ssi")
    coordinator.write(other, "t", "a", 7)
    coordinator.write(other, "t", "z", 7)
    coordinator.commit(other)  # cross-shard: bumps both vector entries

    with pytest.raises(UpdateConflictError):
        coordinator.read(txn, "t", "z")  # escalation after the cut
    assert txn.is_aborted
    assert coordinator.explain_abort(txn.id)["reason"] == "conflict"
    counters = coordinator.metrics.snapshot()["counters"]["coordinator"]
    assert counters["escalation_conflicts"] == 1


def test_single_shard_commits_never_touch_the_visibility_vector():
    coordinator = _split_cluster()
    txn = coordinator.begin("ssi")
    coordinator.write(txn, "t", "a", 1)
    coordinator.commit(txn)
    assert coordinator._csn == [0, 0]
    counters = coordinator.metrics.snapshot()["counters"]["coordinator"]
    assert counters["single_shard_commits"] == 1
    assert counters["cross_shard_commits"] == 0


# ------------------------------------------------------------- routing


def test_scan_spans_shards_in_key_order():
    coordinator = _split_cluster()
    coordinator.load("t", [("b", 1), ("n", 2), ("x", 3)])
    txn = coordinator.begin("ssi")
    rows = coordinator.scan(txn, "t")
    assert [key for key, _value in rows] == ["a", "b", "n", "x", "z"]
    bounded = coordinator.scan(txn, "t", "b", "n")
    assert [key for key, _value in bounded] == ["b", "n"]
    coordinator.commit(txn)


def test_unknown_table_is_refused_before_touching_any_shard():
    coordinator = _split_cluster()
    txn = coordinator.begin("ssi")
    with pytest.raises(TableError):
        coordinator.read(txn, "nope", 1)
    assert txn.is_active  # routing errors don't abort the transaction
    coordinator.abort(txn)


def test_deferrable_is_not_supported():
    coordinator = _split_cluster()
    with pytest.raises(TransactionStateError):
        coordinator.begin("ssi", read_only=True, deferrable=True)


def test_explain_abort_of_unknown_gtid():
    coordinator = _split_cluster()
    with pytest.raises(TransactionStateError):
        coordinator.explain_abort(424242)


# ---------------------------------------------------------- mixed load


def test_local_sharded_stress_is_serializable_and_clean():
    customers = 32
    pmap = smallbank_partition_map(2, customers)
    coordinator = Coordinator([LocalShard(), LocalShard()], pmap)
    result = run_sharded_stress(
        coordinator,
        customers=customers,
        threads=4,
        txns_per_thread=15,
        cross_ratio=0.3,
    )
    assert result.serializable, result.describe()
    assert result.lock_tables_clean, result.shard_audits
    assert result.commits > 0
    assert result.cross_shard_attempted > 0
    assert result.commits + result.aborts == result.txns
    gauge = result.metrics["gauges"]["shard_txn_counts"]
    assert gauge["0"] > 0 and gauge["1"] > 0


def test_a_waiting_operation_keeps_its_routing_entry_for_the_retry():
    """An operation that waits for a lock raises the wait and keeps its
    gtid routing entry; the retry runs on it once the holder has
    committed, and the commit retires the entry, as an abort does."""
    shard = LocalShard()
    shard.create_table("t")
    shard.begin(1, "s2pl")
    shard.call(1, "put", "t", "k", "first")
    shard.begin(2, "s2pl")
    with pytest.raises(CompletionWaitRequired):
        shard.call(2, "put", "t", "k", "second")
    assert 2 in shard._txns
    shard.commit(1)
    assert 1 not in shard._txns and 2 in shard._txns
    shard.call(2, "put", "t", "k", "second")  # the retry, now granted
    shard.commit(2)
    assert 2 not in shard._txns

    shard.begin(3)
    shard.call(3, "put", "t", 3, "v")
    shard._txns[3].doom_error = UnsafeError("doomed by test", txn_id=0)
    with pytest.raises(UnsafeError):
        shard.commit(3)
    assert 3 not in shard._txns
