"""Threaded stress tests for the fine-grained latch hierarchy (PR 5).

Real OS threads hammer one database through the blocking client API and
the run is audited afterwards: workload invariants over the final table
contents, the MVSG serializability oracle over the recorded history, and
lock-table cleanliness (a latching race typically *leaks* — a lost
SIREAD sentinel, an orphaned owner entry — rather than crashes).

Also here: the experiment runner's level/MPL overrides, and unit tests
for the debug latch-order checker.
"""

from __future__ import annotations

import threading

import pytest

from repro import Database, EngineConfig
from repro.bench.harness import Experiment, run_experiment
from repro.engine import latches
from repro.engine.latches import (
    CheckedLatch,
    LatchOrderError,
    assert_no_latches_held,
    held_latches,
)
from repro.exec import final_rows, run_threaded_stress
from repro.sim.scheduler import SimConfig
from repro.workloads import sibench
from repro.workloads.smallbank import CHECKING, SAVING, make_smallbank

LEVELS = ("si", "ssi", "s2pl")
SEED = 9137


# ------------------------------------------------------------- smallbank


class TestThreadedSmallbank:
    """4 threads x 50 txns per isolation level (600 transactions total,
    the PR's 500+ race-clean requirement)."""

    @pytest.mark.parametrize("level", LEVELS)
    def test_race_clean(self, level):
        customers = 60  # small table -> real contention
        checked = level in ("ssi", "s2pl")

        def structural_invariant(db):
            saving = final_rows(db, SAVING)
            checking = final_rows(db, CHECKING)
            # no lost or phantom rows, no torn (non-numeric) balances
            assert sorted(saving) == list(range(customers))
            assert sorted(checking) == list(range(customers))
            for balance in list(saving.values()) + list(checking.values()):
                assert isinstance(balance, (int, float))

        result = run_threaded_stress(
            make_smallbank(customers=customers),
            level=level,
            threads=4,
            txns_per_thread=50,
            seed=SEED,
            check_serializability=checked,
            invariant=structural_invariant,
        )
        assert result.commits + result.aborts == result.txns == 200
        assert result.commits > 0
        assert result.lock_table_clean, result.describe()
        assert result.residual_suspended == 0
        if checked:
            # serializable levels must produce a serializable history
            assert result.serializable, result.serialization_detail

    def test_no_lost_sireads(self):
        """After an SSI run quiesces, no SIREAD sentinel survives: the
        per-owner indexes and the lock table are both empty."""
        seen = {}

        def audit(db):
            seen.update(db.locks.residue())

        result = run_threaded_stress(
            make_smallbank(customers=40),
            level="ssi",
            threads=4,
            txns_per_thread=40,
            seed=SEED,
            invariant=audit,
        )
        assert result.lock_table_clean, result.describe()
        assert seen == {"granted": 0, "owners": 0, "waiters": 0, "siread": 0}

    def test_no_lost_sireads_under_escalation(self):
        """Same leak audit with a budget tiny enough that the run lives
        in a permanent escalation storm: promoted coarse sentinels,
        covered re-reads and weighted drops must all settle to zero
        (``residual_siread`` counts read-list entries), and the committed
        history must still pass the MVSG oracle — escalation only ever
        adds conservative aborts."""
        result = run_threaded_stress(
            sibench.make_sibench(items=30, queries_per_update=1.0),
            level="ssi",
            threads=4,
            txns_per_thread=30,
            seed=SEED,
            config=EngineConfig(record_history=True, siread_budget=40),
            check_serializability=True,
        )
        assert result.serializable, result.serialization_detail
        assert result.residual_siread == 0
        assert result.lock_table_clean, result.describe()


# --------------------------------------------------------------- sibench


class TestThreadedSibench:
    @pytest.mark.parametrize("level", LEVELS)
    def test_counter_invariant(self, level):
        """Every committed update increments exactly one row by one, so
        the table sum must equal the committed-update count — a lost
        update (or a torn read-modify-write) breaks the equality."""
        outcome = {}

        def conservation(db):
            outcome["total"] = sum(final_rows(db, sibench.TABLE).values())

        result = run_threaded_stress(
            sibench.make_sibench(items=30),
            level=level,
            threads=4,
            txns_per_thread=40,
            seed=SEED,
            invariant=conservation,
        )
        assert result.lock_table_clean, result.describe()
        assert outcome["total"] == result.commits_by_name.get("update", 0)


# ------------------------------------------------------- experiment grid


class TestParallelExperimentGrid:
    def test_levels_and_mpls_overrides_respected(self):
        experiment = Experiment(
            exp_id="test-grid-override",
            title="override check",
            workload_factory=lambda: make_smallbank(customers=50),
            engine_config_factory=lambda: EngineConfig(),
            sim_config=SimConfig(duration=0.04, warmup=0.01, seed=SEED),
        )
        result = run_experiment(experiment, levels=("ssi",), mpls=(2, 4))
        assert list(result.series) == ["ssi"]
        assert [run.mpl for run in result.series["ssi"]] == [2, 4]


# ------------------------------------------------------- latch checker


class TestCheckedLatch:
    def test_ascending_order_allowed(self):
        low = CheckedLatch("txn", 10)
        high = CheckedLatch("obs", 80)
        with low, high:
            assert [latch.name for latch in held_latches()] == ["txn", "obs"]
        assert held_latches() == []

    def test_descending_order_raises(self):
        low = CheckedLatch("txn", 10)
        high = CheckedLatch("obs", 80)
        with pytest.raises(LatchOrderError):
            with high, low:
                pass  # pragma: no cover
        # the failed acquire must not leave the stack dirty
        assert held_latches() == [high] or held_latches() == []

    def test_reentrant(self):
        latch = CheckedLatch("tracker", 20)
        with latch, latch:
            assert held_latches() == [latch]
        assert held_latches() == []

    def test_same_rank_never_nests(self):
        table_a = CheckedLatch("table[a]", 40)
        table_b = CheckedLatch("table[b]", 40)
        with pytest.raises(LatchOrderError):
            with table_a, table_b:
                pass  # pragma: no cover

    def test_assert_no_latches_held(self):
        latch = CheckedLatch("commit", 30)
        assert_no_latches_held("outside")  # no-op with nothing held
        with latch:
            with pytest.raises(LatchOrderError):
                assert_no_latches_held("lock wait")


class TestLatchDebugIntegration:
    def test_engine_runs_clean_under_checked_latches(self, monkeypatch):
        """With REPRO_LATCH_DEBUG the whole engine runs on CheckedLatch:
        a threaded stress run doubles as a latch-order proof."""
        monkeypatch.setenv("REPRO_LATCH_DEBUG", "1")
        assert latches.debug_enabled()
        result = run_threaded_stress(
            make_smallbank(customers=40),
            level="ssi",
            threads=3,
            txns_per_thread=20,
            seed=SEED,
        )
        assert result.commits > 0
        assert result.lock_table_clean, result.describe()
        assert held_latches() == []

    def test_make_latch_returns_plain_rlock_in_production(self, monkeypatch):
        monkeypatch.delenv("REPRO_LATCH_DEBUG", raising=False)
        latch = latches.make_latch("txn")
        assert isinstance(latch, type(threading.RLock()))
        monkeypatch.setenv("REPRO_LATCH_DEBUG", "1")
        checked = latches.make_latch("txn")
        assert isinstance(checked, CheckedLatch)
        assert checked.rank == latches.RANKS["txn"]
