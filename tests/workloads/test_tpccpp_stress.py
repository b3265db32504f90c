"""TPC-C++ on real threads under SSI, audited by the MVSG oracle: wide
scans (Stock Level's order-line window), index maintenance (New Order's
``orders_by_customer`` entries), inserts and SIREAD escalation in one
run."""

from collections import Counter

import pytest

from repro import EngineConfig
from repro.exec import final_rows, run_threaded_stress
from repro.workloads.tpcc import ORDERS, ORDERS_BY_CUSTOMER, TpccScale
from repro.workloads.tpccpp import make_tpccpp


@pytest.mark.parametrize("siread_budget", [None, 64])
def test_tpccpp_threads_are_serializable_and_leak_free(siread_budget):
    workload = make_tpccpp(TpccScale.tiny())
    databases = []
    result = run_threaded_stress(
        workload,
        level="ssi",
        threads=4,
        txns_per_thread=40,
        config=EngineConfig(siread_budget=siread_budget),
        check_serializability=True,
        on_database=databases.append,
    )
    assert result.serializable, result.serialization_detail
    assert result.lock_table_clean, result.describe()
    for name, _weight, _program in workload.mix.entries:
        assert result.commits_by_name.get(name, 0) >= 1, (
            f"{name} never committed: {result.describe()}"
        )
    # The scans escalated their SIREADs exactly when a budget is set.
    (db,) = databases
    escalated = db.locks.stats["escalations"] > 0
    assert escalated == (siread_budget is not None)

    # Every order, loaded or inserted by a committed New Order, carries
    # exactly one index entry, under its own (w, d, c_id).
    orders = final_rows(db, ORDERS)
    entries = final_rows(db, ORDERS_BY_CUSTOMER)
    assert Counter(entries.values()) == Counter(list(orders))
    for (index_key, pk), indexed_pk in entries.items():
        assert pk == indexed_pk
        w_id, d_id, _o_id = pk
        assert index_key == (w_id, d_id, orders[pk]["c_id"])
