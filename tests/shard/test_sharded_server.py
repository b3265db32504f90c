"""Forked shard processes: 2PC over the wire protocol.

Everything the local-coordinator tests prove in-process must survive
the wire: pipelined frames with out-of-order completion on one link,
PREPARE votes travelling as frames, cross-shard abort explanations
annotated with shard ids, and clean lock tables on every shard after
the load drains.
"""

import pytest

from repro.errors import UnsafeError
from repro.shard import (
    PartitionMap,
    ShardCluster,
    run_sharded_stress,
    smallbank_partition_map,
)

CUSTOMERS = 32


@pytest.fixture(scope="module")
def bank_cluster():
    pmap = smallbank_partition_map(2, CUSTOMERS)
    with ShardCluster(pmap) as cluster:
        yield cluster


@pytest.fixture()
def traced_cluster():
    pmap = PartitionMap(2, {"t": ["m"]})
    with ShardCluster(pmap, trace=True) as cluster:
        cluster.coordinator.create_table("t")
        cluster.coordinator.load(
            "t", [("a", 0), ("b", 0), ("y", 0), ("z", 0)]
        )
        yield cluster


def test_mixed_smallbank_stress_over_the_wire(bank_cluster):
    result = run_sharded_stress(
        bank_cluster.coordinator,
        customers=CUSTOMERS,
        threads=3,
        txns_per_thread=12,
        cross_ratio=0.3,
    )
    assert result.commits > 0
    assert result.cross_shard_attempted > 0
    assert result.commits + result.aborts == result.txns
    assert result.serializable, result.describe()
    assert result.lock_tables_clean, result.shard_audits
    for audit in result.shard_audits:
        assert audit["prepared"] == 0
        assert audit["suspended"] == 0


def test_pipelined_frames_complete_out_of_order(bank_cluster):
    link = bank_cluster.backends[0].link
    # Many frames in flight on one connection; collect the replies in
    # reverse submission order — each future holds its own reply, so the
    # wait order need not match the wire order.
    futures = [link.submit({"op": "ping"}) for _ in range(40)]
    for future in reversed(futures):
        assert link.result(future)["ok"]
    assert all(future.done() for future in futures)


def test_single_shard_abort_explanation_over_the_wire(traced_cluster):
    """A shard-certified abort (both conflicts on shard 0): the server's
    trace-derived explanation rides the error reply and the coordinator
    annotates it with the shard id and global-id pivot entries."""
    coordinator = traced_cluster.coordinator
    t1 = coordinator.begin("ssi")
    t2 = coordinator.begin("ssi")
    coordinator.read(t1, "t", "a")
    coordinator.read(t1, "t", "b")
    coordinator.read(t2, "t", "a")
    coordinator.read(t2, "t", "b")
    coordinator.write(t1, "t", "b", 1)  # t2 -rw-> t1
    coordinator.write(t2, "t", "a", 1)  # t1 -rw-> t2
    coordinator.commit(t1)
    # t2 is now the pivot of a complete dangerous structure with a
    # committed out-edge: its (single-shard) commit fails on the shard.
    with pytest.raises(UnsafeError) as info:
        coordinator.commit(t2)
    payload = info.value.explanation
    assert payload["reason"] == "unsafe"
    assert payload["shard"] == 0
    roles = payload["pivot"]
    assert roles["pivot"]["gtid"] == t2.id
    assert roles["t_in"]["gtid"] == t1.id
    assert roles["t_out"]["gtid"] == t1.id
    assert coordinator.explain_abort(t2.id) == payload


def test_cross_shard_abort_explanation_over_the_wire(traced_cluster):
    """The PREPARE summaries travel as frames: each shard votes one half
    of the dangerous structure and the coordinator names both shards in
    the pivot it aborts."""
    coordinator = traced_cluster.coordinator
    t1 = coordinator.begin("ssi")
    t2 = coordinator.begin("ssi")
    coordinator.read(t1, "t", "a")
    coordinator.read(t1, "t", "z")
    coordinator.read(t2, "t", "a")
    coordinator.read(t2, "t", "z")
    coordinator.write(t1, "t", "z", 1)  # shard 1 sees t2 -rw-> t1
    coordinator.write(t2, "t", "a", 1)  # shard 0 sees t1 -rw-> t2
    with pytest.raises(UnsafeError) as info:
        coordinator.commit(t1)
    payload = info.value.explanation
    assert payload["reason"] == "unsafe"
    assert set(payload["pivot"]["pivot"]["shard"]) == {0, 1}
    assert payload["pivot"]["pivot"]["gtid"] == t1.id
    assert payload["pivot"]["t_in"]["gtid"] == t2.id
    assert payload["pivot"]["t_out"]["gtid"] == t2.id
    coordinator.commit(t2)
    # The survivor's commit was a genuine cross-shard 2PC.
    counters = coordinator.metrics.snapshot()["counters"]["coordinator"]
    assert counters["cross_shard_commits"] >= 1
    assert counters["cross_shard_unsafe"] >= 1
