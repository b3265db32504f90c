"""Micro-benchmarks: per-operation engine overhead by isolation level.

The paper's implementation chapters stress that Serializable SI adds only
small, localised costs (Sections 4.3.2, 4.6.2).  These measure the *real*
Python-level latency of point reads, writes and scans under each level —
the one place in this suite where wall-clock time, not simulated time, is
the quantity of interest.
"""

import pytest

from repro import Database, EngineConfig


def make_db(rows=1000):
    db = Database(EngineConfig())
    db.create_table("t")
    db.load("t", ((i, i) for i in range(rows)))
    return db


@pytest.mark.benchmark(group="micro-read")
@pytest.mark.parametrize("level", ["si", "ssi", "s2pl", "sgt"])
def test_point_read(benchmark, level):
    db = make_db()

    def one_txn():
        txn = db.begin(level)
        txn.read("t", 500)
        txn.commit()

    benchmark(one_txn)


@pytest.mark.benchmark(group="micro-read3")
@pytest.mark.parametrize("level", ["si", "ssi"])
def test_three_point_reads(benchmark, level):
    """A read-only transaction of three point reads: at ``ssi`` the
    difference from ``si`` is three SIREAD grants, their retention at
    commit and their drop at cleanup."""
    db = make_db()

    def one_txn():
        txn = db.begin(level)
        for key in (100, 500, 900):
            txn.read("t", key)
        txn.commit()

    benchmark(one_txn)


@pytest.mark.benchmark(group="micro-write")
@pytest.mark.parametrize("level", ["si", "ssi", "s2pl"])
def test_point_update(benchmark, level):
    db = make_db()

    def one_txn():
        txn = db.begin(level)
        txn.write("t", 500, 1)
        txn.commit()

    benchmark(one_txn)


@pytest.mark.benchmark(group="micro-scan")
@pytest.mark.parametrize("level", ["si", "ssi", "s2pl"])
def test_scan_100(benchmark, level):
    db = make_db()

    def one_txn():
        txn = db.begin(level)
        txn.scan("t", 100, 199)
        txn.commit()

    benchmark(one_txn)


@pytest.mark.benchmark(group="micro-rmw")
@pytest.mark.parametrize("level", ["si", "ssi", "s2pl"])
def test_read_modify_write(benchmark, level):
    db = make_db()

    def one_txn():
        txn = db.begin(level)
        value = txn.read_for_update("t", 500)
        txn.write("t", 500, value + 1)
        txn.commit()

    benchmark(one_txn)
