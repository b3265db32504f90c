"""Metrics registry: counter groups, histograms, deep snapshots."""

import json

import pytest

from repro.obs.registry import (
    CounterGroup,
    Histogram,
    MetricsRegistry,
    json_safe,
)


def reject_constant(value):
    raise ValueError(f"non-standard JSON constant: {value!r}")


class TestCounterGroup:
    def test_native_dict_increments(self):
        group = CounterGroup({"reads": 0})
        group["reads"] += 1
        group["reads"] += 1
        assert group["reads"] == 2
        assert isinstance(group, dict)

    def test_snapshot_is_deep(self):
        group = CounterGroup({"aborts": CounterGroup({"unsafe": 1}), "begins": 3})
        snap = group.snapshot()
        group["aborts"]["unsafe"] = 99
        group["begins"] = 99
        assert snap == {"aborts": {"unsafe": 1}, "begins": 3}
        assert type(snap["aborts"]) is dict

    def test_reset_zeroes_recursively(self):
        group = CounterGroup({"aborts": CounterGroup({"unsafe": 4}), "begins": 7})
        group.reset()
        assert group == {"aborts": {"unsafe": 0}, "begins": 0}


class TestHistogram:
    def test_count_sum_min_max_mean(self):
        h = Histogram("h")
        for value in (0.5, 1.5, 2.0):
            h.observe(value)
        assert h.count == 3
        assert h.total == pytest.approx(4.0)
        assert h.min == 0.5
        assert h.max == 2.0
        assert h.mean == pytest.approx(4.0 / 3)

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram("h").mean == 0.0

    def test_bucketing_and_overflow(self):
        h = Histogram("h", edges=(1, 10))
        for value in (0.5, 1.0, 5.0, 100.0):
            h.observe(value)
        snap = h.snapshot()
        assert snap["buckets"] == {"le_1": 2, "le_10": 1, "overflow": 1}

    def test_edge_value_lands_in_its_own_bucket(self):
        h = Histogram("h", edges=(1, 10, 100))
        for value in (1, 10, 100, 100.5, 1e9):
            h.observe(value)
        snap = h.snapshot()
        assert snap["buckets"] == {
            "le_1": 1, "le_10": 1, "le_100": 1, "overflow": 2,
        }

    def test_observe_many_equals_one_observe_per_value(self):
        one, many = Histogram("one", edges=(1, 10)), Histogram("many", edges=(1, 10))
        for value in (0.5, 3, 30):
            one.observe(value)
        many.observe_many((0.5, 3, 30))
        many.observe_many(())
        assert many.snapshot() == one.snapshot()

    def test_reset(self):
        h = Histogram("h", edges=(1,))
        h.observe(0.5)
        h.reset()
        snap = h.snapshot()
        assert snap["count"] == 0 and snap["min"] is None
        assert snap["buckets"] == {"le_1": 0, "overflow": 0}


class TestJsonSafe:
    def test_non_finite_floats_become_none(self):
        data = {"a": float("inf"), "b": float("nan"), "c": 1.5}
        assert json_safe(data) == {"a": None, "b": None, "c": 1.5}

    def test_nested_containers_copied(self):
        inner = {"x": 1}
        out = json_safe({"inner": inner, "seq": (1, 2)})
        assert out == {"inner": {"x": 1}, "seq": [1, 2]}
        assert out["inner"] is not inner

    def test_arbitrary_objects_render_as_strings(self):
        class Weird:
            def __repr__(self):
                return "weird"

        assert json_safe({"w": Weird()}) == {"w": "weird"}


class TestMetricsRegistry:
    def test_group_is_created_once(self):
        registry = MetricsRegistry()
        a = registry.group("engine", {"reads": 0})
        b = registry.group("engine")
        assert a is b

    def test_register_group_adopts_by_reference(self):
        registry = MetricsRegistry()
        stats = CounterGroup({"acquires": 0})
        adopted = registry.register_group("locks", stats)
        assert adopted is stats
        stats["acquires"] += 5
        assert registry.snapshot()["counters"]["locks"]["acquires"] == 5

    def test_snapshot_never_aliases_live_state(self):
        registry = MetricsRegistry()
        engine = registry.group("engine", {"aborts": {"unsafe": 0}})
        snap = registry.snapshot()
        engine["aborts"]["unsafe"] += 1
        assert snap["counters"]["engine"]["aborts"]["unsafe"] == 0

    def test_snapshot_round_trips_strict_json(self):
        registry = MetricsRegistry()
        registry.group("engine", {"reads": 3})
        registry.histogram("waits", edges=(0.1, 1.0)).observe(0.05)
        text = json.dumps(registry.snapshot(), allow_nan=False)
        restored = json.loads(text, parse_constant=reject_constant)
        assert restored["counters"]["engine"]["reads"] == 3
        assert restored["histograms"]["waits"]["count"] == 1

    def test_histogram_is_created_once(self):
        registry = MetricsRegistry()
        assert registry.histogram("h") is registry.histogram("h")

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        group = registry.group("engine", {"reads": 9})
        histogram = registry.histogram("h")
        histogram.observe(1.0)
        registry.reset()
        assert group["reads"] == 0
        assert histogram.count == 0


class TestGauge:
    def test_register_and_read(self):
        registry = MetricsRegistry()
        box = {"value": 3}
        gauge = registry.register_gauge("depth", lambda: box["value"])
        assert gauge.read() == 3
        box["value"] = 11
        assert gauge.read() == 11
        assert registry.gauges()["depth"] is gauge

    def test_snapshot_samples_gauges_fresh(self):
        """Gauges are sampled at snapshot time (outside the registry
        latch: probes may take engine latches of their own), so each
        snapshot reflects the instantaneous value."""
        registry = MetricsRegistry()
        box = {"value": 0}
        registry.register_gauge("lock_table_size", lambda: box["value"])
        assert registry.snapshot()["gauges"]["lock_table_size"] == 0
        box["value"] = 42
        snap = registry.snapshot()
        assert snap["gauges"]["lock_table_size"] == 42
        text = json.dumps(snap, allow_nan=False)
        assert json.loads(text)["gauges"]["lock_table_size"] == 42

    def test_database_exports_lock_gauges(self):
        from repro import Database, EngineConfig

        db = Database(EngineConfig())
        db.create_table("t")
        db.load("t", [(1, "a"), (2, "b")])
        txn = db.begin("ssi")
        txn.read("t", 1)
        gauges = db.metrics.snapshot()["gauges"]
        assert gauges["lock_table_size"] >= 1
        assert gauges["siread_locks"] >= 1
        assert gauges["escalated_locks"] == 0
        txn.commit()


class TestBufferedHistograms:
    def test_snapshot_folds_every_buffered_sample(self):
        """The engine buffers its two SSI-only per-commit samples under
        the tracker latch; a snapshot taken before any batch boundary
        still counts every retained commit and every cleanup once."""
        from repro import Database, EngineConfig
        from repro.engine import commit

        db = Database(EngineConfig(eager_cleanup=True))
        db.create_table("t")
        db.load("t", [(k, 0) for k in range(4)])
        pin = db.begin("ssi")
        pin.read("t", 0)  # holds the horizon: every reader below suspends
        for key in range(1, 4):
            reader = db.begin("ssi")
            reader.read("t", key)
            reader.commit()
        pin.commit()  # the horizon moves: everything suspended is cleaned
        suspended = db.stats["suspended_peak"]
        cleaned = db.stats["cleaned"]
        assert suspended == 4 and cleaned == 4  # the pin suspends too
        assert cleaned < commit._SAMPLE_BATCH  # no batch boundary reached
        histograms = db.metrics.snapshot()["histograms"]
        assert histograms["suspended_transactions"]["count"] == suspended
        assert histograms["siread_retention"]["count"] == cleaned
        # a second snapshot folds nothing twice
        again = db.metrics.snapshot()["histograms"]
        assert again["suspended_transactions"]["count"] == suspended
        assert again["siread_retention"]["count"] == cleaned
