"""Discrete-event simulator tests."""

import random

import pytest

from repro.engine.config import DeadlockMode, EngineConfig
from repro.engine.database import Database
from repro.sim.ops import Compute, Read, ReadForUpdate, Write
from repro.sim.scheduler import SimConfig, Simulator, run_simulation
from repro.sim.workload import Mix, Workload


def counter_workload(keys=1):
    """Clients increment one of ``keys`` counters."""

    def setup(db):
        db.create_table("c")
        db.load("c", ((i, 0) for i in range(keys)))

    def program(rng):
        key = rng.randrange(keys)
        value = yield ReadForUpdate("c", key)
        yield Write("c", key, value + 1)

    return Workload("counter", setup, Mix([("inc", 1.0, program)]))


def reader_workload():
    def setup(db):
        db.create_table("c")
        db.load("c", [(0, 0)])

    def program(rng):
        yield Read("c", 0)
        yield Compute(5)

    return Workload("reader", setup, Mix([("read", 1.0, program)]))


class TestThroughputAccounting:
    def test_commits_counted_and_consistent(self):
        workload = counter_workload(keys=4)
        db = Database(EngineConfig())
        workload.setup(db)
        result = Simulator(db, workload, "si", 4, SimConfig(duration=0.2, warmup=0.0)).run()
        assert result.commits > 0
        total = sum(
            db.table("c").chain(i).latest().value for i in range(4)
        )
        # Every increment committed during *and after* warmup is in the
        # table; with warmup=0 the counter total equals commit count.
        assert total == result.commits

    def test_warmup_excluded(self):
        workload = reader_workload()
        full = run_simulation(workload, "si", 2,
                              sim_config=SimConfig(duration=0.2, warmup=0.0))
        trimmed = run_simulation(workload, "si", 2,
                                 sim_config=SimConfig(duration=0.1, warmup=0.1))
        assert trimmed.commits < full.commits

    def test_throughput_property(self):
        workload = reader_workload()
        result = run_simulation(workload, "si", 1,
                                sim_config=SimConfig(duration=0.5, warmup=0.0))
        assert result.throughput == pytest.approx(result.commits / 0.5)

    def test_cpu_bound_saturation(self):
        """With one core and no I/O, MPL growth cannot scale throughput."""
        workload = reader_workload()
        t1 = run_simulation(workload, "si", 1,
                            sim_config=SimConfig(duration=0.3, warmup=0.0))
        t8 = run_simulation(workload, "si", 8,
                            sim_config=SimConfig(duration=0.3, warmup=0.0))
        assert t8.throughput <= t1.throughput * 1.1

    def test_more_cores_scale_reader_throughput(self):
        workload = reader_workload()
        one = run_simulation(workload, "si", 8,
                             sim_config=SimConfig(duration=0.3, warmup=0.0, cores=1))
        four = run_simulation(workload, "si", 8,
                              sim_config=SimConfig(duration=0.3, warmup=0.0, cores=4))
        assert four.throughput > one.throughput * 2


class TestLogFlushModelling:
    def test_flush_caps_single_client(self):
        """One client, 10 ms flush per commit -> at most ~100 commits/s."""
        workload = counter_workload()
        result = run_simulation(
            workload, "si", 1,
            sim_config=SimConfig(duration=1.0, warmup=0.0,
                                 commit_flush=True, flush_time=0.010),
        )
        assert 50 <= result.throughput <= 101

    def test_group_commit_scales_with_mpl(self):
        workload = counter_workload(keys=64)
        results = {}
        for mpl in (1, 8):
            results[mpl] = run_simulation(
                workload, "si", mpl,
                sim_config=SimConfig(duration=1.0, warmup=0.0,
                                     commit_flush=True, flush_time=0.010),
            )
        assert results[8].throughput > results[1].throughput * 3

    def test_readonly_transactions_skip_flush(self):
        workload = reader_workload()
        result = run_simulation(
            workload, "si", 1,
            sim_config=SimConfig(duration=0.3, warmup=0.0,
                                 commit_flush=True, flush_time=0.010),
        )
        # far more than the 30 commits a flush-bound client could do
        assert result.commits > 1000


class TestAbortAccounting:
    def test_conflict_aborts_recorded(self):
        workload = counter_workload(keys=1)  # maximal write contention

        def setup(db):
            workload.setup(db)

        # Non-deferred snapshots so FCW conflicts actually occur.
        result = run_simulation(
            Workload("hot", setup, workload.mix), "si", 8,
            engine_config=EngineConfig(deferred_snapshot=False),
            sim_config=SimConfig(duration=0.2, warmup=0.0),
        )
        assert result.aborts["conflict"] > 0
        assert result.cc_aborts == result.aborts["conflict"] + result.aborts["deadlock"] + result.aborts["unsafe"]

    def test_deferred_snapshot_eliminates_counter_conflicts(self):
        """Section 4.5's headline effect, measured in the simulator."""
        workload = counter_workload(keys=1)
        result = run_simulation(
            workload, "si", 8,
            engine_config=EngineConfig(deferred_snapshot=True),
            sim_config=SimConfig(duration=0.2, warmup=0.0),
        )
        assert result.aborts["conflict"] == 0
        assert result.commits > 0


class TestDeterminism:
    def test_same_seed_same_result(self):
        workload = counter_workload(keys=4)
        runs = [
            run_simulation(workload, "ssi", 4,
                           sim_config=SimConfig(duration=0.2, warmup=0.0, seed=7))
            for _ in range(2)
        ]
        assert runs[0].commits == runs[1].commits
        assert runs[0].aborts == runs[1].aborts

    def test_different_seeds_differ(self):
        workload = counter_workload(keys=4)
        a = run_simulation(workload, "ssi", 4,
                           sim_config=SimConfig(duration=0.2, warmup=0.0, seed=1))
        b = run_simulation(workload, "ssi", 4,
                           sim_config=SimConfig(duration=0.2, warmup=0.0, seed=2))
        # Not a hard guarantee, but with continuous activity the commit
        # mix essentially never matches exactly.
        assert (a.commits, tuple(sorted(a.commits_by_type.items()))) != (
            b.commits, tuple(sorted(b.commits_by_type.items()))
        ) or a.commits > 0


class TestEngineStatsSnapshot:
    def test_engine_stats_do_not_alias_live_counters(self):
        """The exported snapshot must be a deep copy: the shallow
        ``dict(...)`` copies used previously shared the nested ``aborts``
        dict with the live engine, so post-run activity (or a second
        simulation on the same database) silently rewrote old results."""
        workload = counter_workload(keys=1)
        db = Database(EngineConfig())
        workload.setup(db)
        result = Simulator(db, workload, "si", 4,
                           SimConfig(duration=0.2, warmup=0.0)).run()
        frozen = {
            "aborts": dict(result.engine_stats["engine"]["aborts"]),
            "acquires": result.engine_stats["locks"]["acquires"],
        }
        # Keep using the same engine after the run.
        txn = db.begin("si")
        txn.read("c", 0)
        txn.abort()
        db.stats["aborts"]["aborted"] += 100
        db.locks.stats["acquires"] += 100
        assert result.engine_stats["engine"]["aborts"] == frozen["aborts"]
        assert result.engine_stats["locks"]["acquires"] == frozen["acquires"]

    def test_engine_stats_include_histograms(self):
        workload = counter_workload(keys=1)
        result = run_simulation(workload, "s2pl", 4,
                                sim_config=SimConfig(duration=0.2, warmup=0.0))
        histograms = result.engine_stats["histograms"]
        assert "lock_wait_time" in histograms
        assert "version_chain_length" in histograms
        # Single-key S2PL counters queue constantly: waits were measured.
        assert histograms["lock_wait_time"]["count"] > 0
        assert histograms["version_chain_length"]["count"] > 0


class TestPeriodicCadence:
    def drain(self, sim):
        import heapq

        while sim._events:
            when, _seq, fn = heapq.heappop(sim._events)
            if when > sim._horizon:
                break
            sim.now = when
            fn()

    def make_sim(self, duration, warmup=0.0):
        workload = reader_workload()
        db = Database(EngineConfig())
        workload.setup(db)
        return Simulator(db, workload, "si", 1,
                         SimConfig(duration=duration, warmup=warmup))

    def test_tick_on_horizon_edge_still_fires(self):
        """0.05 accumulated six times lands exactly on 0.3; a cadence
        computed as ``start + k * interval`` rounds up past the horizon
        and silently drops the final tick (the last vacuum of a run)."""
        sim = self.make_sim(duration=0.3)
        fired = []
        sim._step(sim._every(0.05, lambda: fired.append(sim.now)))
        self.drain(sim)
        assert len(fired) == 6
        assert fired[-1] == pytest.approx(0.3)

    def test_cadence_does_not_drift(self):
        """Successive fire times stay interval-spaced even when the
        callback burns simulated CPU (schedules work at later times)."""
        sim = self.make_sim(duration=1.0)
        fired = []

        def tick():
            fired.append(sim.now)
            # Schedule unrelated later events, like a busy engine would.
            sim.schedule_at(sim.now + 0.003, lambda: None)

        interval = 1 / 128  # exactly representable: spacing must be exact
        sim._step(sim._every(interval, tick))
        self.drain(sim)
        assert len(fired) == 128
        gaps = [b - a for a, b in zip(fired, fired[1:])]
        assert all(gap == interval for gap in gaps)
