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


@pytest.mark.parametrize("page_lock_threshold", [None, 8])
def test_reporting_mix_is_serializable_and_leak_free(page_lock_threshold):
    workload = make_reporting_mix(scale=1)
    databases = []
    coarse_grants = []

    def watch(db):
        databases.append(db)
        real = db.locks.acquire_coarse_sireads

        def counting(txn, resources):
            coarse_grants.append(len(resources))
            return real(txn, resources)

        db.locks.acquire_coarse_sireads = counting

    result = run_threaded_stress(
        workload,
        level="ssi",
        threads=4,
        txns_per_thread=40,
        config=EngineConfig(scan_page_lock_threshold=page_lock_threshold),
        check_serializability=True,
        on_database=watch,
    )
    assert result.serializable, result.serialization_detail
    assert result.lock_table_clean, result.describe()
    for name, _weight, _program in workload.mix.entries:
        assert result.commits_by_name.get(name, 0) >= 1, (
            f"{name} never committed: {result.describe()}"
        )
    # The wide scans took page SIREADs exactly when the knob says so.
    assert bool(coarse_grants) == (page_lock_threshold is not None)

    # Final state: every committed order_entry (and nothing else) added
    # an order, indexed once and carrying its first lineitem.
    (db,) = databases
    orders = final_rows(db, ORDERS)
    assert len(orders) == order_count(1) + result.commits_by_name["order_entry"]
    assert len(final_rows(db, ORDERS_BY_CUSTOMER)) == len(orders)
    lineitems = final_rows(db, LINEITEM)
    assert all((o_id, 0) in lineitems for o_id in orders)
