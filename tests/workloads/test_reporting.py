"""Reporting workload tests: the TPC-H-flavored scan mix running against
SmallBank on real threads, audited by the MVSG oracle."""

import pytest

from repro import EngineConfig
from repro.exec import final_rows, run_threaded_stress
from repro.workloads.reporting import (
    LINEITEM,
    ORDERS,
    ORDERS_BY_CUSTOMER,
    make_reporting_mix,
    order_count,
)


@pytest.mark.parametrize("siread_budget", [None, 64])
def test_reporting_mix_is_serializable_and_leak_free(siread_budget):
    workload = make_reporting_mix(scale=1)
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
    # The wide scans escalated their SIREADs exactly when a budget is set.
    (db,) = databases
    escalated = db.locks.stats["escalations"] > 0
    assert escalated == (siread_budget is not None)

    # Final state: every committed order_entry (and nothing else) added
    # an order, indexed once and carrying its first lineitem.
    orders = final_rows(db, ORDERS)
    assert len(orders) == order_count(1) + result.commits_by_name["order_entry"]
    assert len(final_rows(db, ORDERS_BY_CUSTOMER)) == len(orders)
    lineitems = final_rows(db, LINEITEM)
    assert all((o_id, 0) in lineitems for o_id in orders)
