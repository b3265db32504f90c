"""Typed metrics: counters, counter groups and histograms.

The engine used to report its telemetry through three disconnected ad-hoc
dicts (``Database.stats``, ``LockManager.stats``, tracker stats).  The
:class:`MetricsRegistry` absorbs them behind one snapshot API — the
``pg_stat``-style counter surface the PostgreSQL SSI implementation leans
on to validate and tune its algorithm (Ports & Grittner, VLDB 2012).

Design constraints:

* **Hot-path cost ~ a dict increment.**  :class:`CounterGroup` is a
  ``dict`` subclass, so ``stats["begins"] += 1`` under an engine latch
  compiles to the exact native-dict operations it always did; the
  registry only adds *snapshot* semantics around the same storage.
* **Snapshots are deep and JSON-safe.**  :meth:`MetricsRegistry.snapshot`
  returns plain nested dicts of ints/floats, recursively copied, so an
  exported snapshot never aliases live engine state and always survives
  strict ``json.dumps`` (no ``Infinity``/``NaN``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Iterable, Mapping

from repro.engine.latches import make_latch

#: The obs latch — the *leaf* of the engine's latch hierarchy (see
#: :mod:`repro.engine.latches`): it may be taken while holding any other
#: engine latch, and nothing may be acquired under it.  One module-level
#: latch (rather than per-registry) keeps :meth:`CounterGroup.inc` usable
#: on groups that were never registered, and contention on it is
#: negligible at engine scale.  It serialises: cross-thread counter
#: increments that are not already guarded by an engine latch
#: (:meth:`CounterGroup.inc`), multi-field histogram observation, trace
#: emission, and registry snapshots — fixing the torn-snapshot reads a
#: concurrent ``snapshot()`` could previously produce (e.g. a histogram
#: whose ``count`` was bumped but whose ``total`` was not yet).  Checked
#: (and counted) under ``REPRO_LATCH_DEBUG`` like every engine latch.
OBS_LATCH = make_latch("obs")


def deep_copy_counters(mapping: Mapping) -> dict:
    """Recursively copy a counter mapping into plain dicts."""
    return {
        key: deep_copy_counters(value) if isinstance(value, Mapping) else value
        for key, value in mapping.items()
    }


def json_safe(obj: Any) -> Any:
    """Recursively convert ``obj`` into strictly-JSON-serialisable data.

    Non-finite floats become ``None`` (``json.dumps`` would otherwise emit
    the non-standard ``Infinity``/``NaN`` literals that silently corrupt
    trajectory files); mappings and sequences are copied; any other
    non-scalar value is rendered via ``str``.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, Mapping):
        return {str(key): json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [json_safe(item) for item in obj]
    return str(obj)


class CounterGroup(dict):
    """A named group of counters with native-dict increment speed.

    Values are ints (or nested :class:`CounterGroup`/dicts for
    sub-buckets, e.g. the per-reason abort counts).  The group itself is
    what engine components mutate directly; the registry holds a
    reference and deep-copies on snapshot.
    """

    __slots__ = ()

    def inc(self, key: str, n: int = 1) -> None:
        """Atomic increment (one obs-latch hold) for a counter no engine
        latch guards.  One that a latch guards is bumped in place under
        it (``stats["begins"] += 1``); a hot one is tallied elsewhere and
        folded in under its latch (the engine's ``reads``)."""
        with OBS_LATCH:
            self[key] = self.get(key, 0) + n

    def snapshot(self) -> dict:
        """Deep plain-dict copy; safe to hand out and to serialise."""
        with OBS_LATCH:
            return deep_copy_counters(self)

    def reset(self) -> None:
        """Zero every counter, recursively, in place."""
        for key, value in self.items():
            if isinstance(value, Mapping):
                for sub in value:
                    value[sub] = 0
            else:
                self[key] = 0


class Histogram:
    """A streaming histogram: count/sum/min/max plus fixed buckets.

    Buckets are upper-bound edges (``le``, ascending); one overflow
    bucket catches everything above the last edge.  Cheap enough to observe on engine
    paths (a bisect over a handful of edges) and summarises without
    retaining samples.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_edges", "_buckets")

    #: default edges suit both sub-millisecond waits and chain lengths
    DEFAULT_EDGES = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)

    def __init__(self, name: str, edges: Iterable[float] | None = None):
        self.name = name
        self._edges = tuple(edges) if edges is not None else self.DEFAULT_EDGES
        self._buckets = [0] * (len(self._edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Iterable[float]) -> None:
        """Observe each value, all under one obs-latch hold."""
        # Multi-field update: without the latch a concurrent snapshot()
        # could see count bumped but total stale (a torn read).
        with OBS_LATCH:
            for value in values:
                self.count += 1
                self.total += value
                if self.min is None or value < self.min:
                    self.min = value
                if self.max is None or value > self.max:
                    self.max = value
                # the first edge >= value; past the last edge, the overflow
                self._buckets[bisect_left(self._edges, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        """Plain-dict summary; all values finite and JSON-safe."""
        with OBS_LATCH:
            return {
                "count": self.count,
                "total": self.total,
                "min": self.min,
                "max": self.max,
                "mean": self.mean,
                "buckets": {
                    **{
                        f"le_{edge:g}": n
                        for edge, n in zip(self._edges, self._buckets)
                    },
                    "overflow": self._buckets[-1],
                },
            }

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self._buckets = [0] * (len(self._edges) + 1)

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean:.4g})"


class Gauge:
    """A sampled instantaneous value — current lock-table size, active
    transaction count — probed from a callable at read time.

    Counters only ever grow; a gauge answers "how big is it *right now*",
    which is the question memory-bounding machinery (the SIREAD budget)
    is judged on.  The callable must be safe to invoke from any thread
    and may take engine latches, so gauges are sampled *outside* the obs
    latch (engine latches rank below it).
    """

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn):
        self.name = name
        self.fn = fn

    def read(self):
        return self.fn()

    def __repr__(self) -> str:
        return f"Gauge({self.name!r})"


class MetricsRegistry:
    """The unified telemetry surface of one :class:`~repro.engine.database.Database`.

    Components register their :class:`CounterGroup` (keeping a direct
    reference for hot-path increments); consumers call :meth:`snapshot`
    and get an isolated deep copy of everything.
    """

    def __init__(self):
        self._groups: dict[str, CounterGroup] = {}
        self._histograms: dict[str, Histogram] = {}
        self._gauges: dict[str, Gauge] = {}
        #: callables that fold buffered samples in before a snapshot
        self._flushers: list = []

    # -------------------------------------------------------- registration

    def group(self, name: str, initial: Mapping | None = None) -> CounterGroup:
        """Create (or fetch) a counter group.  ``initial`` seeds counters
        on first creation; nested mappings become nested groups."""
        with OBS_LATCH:
            existing = self._groups.get(name)
            if existing is not None:
                return existing
            group = CounterGroup()
            for key, value in (initial or {}).items():
                group[key] = (
                    CounterGroup(value) if isinstance(value, Mapping) else value
                )
            self._groups[name] = group
            return group

    def register_group(self, name: str, group: Mapping) -> CounterGroup:
        """Adopt an externally-created group (e.g. the lock manager's)."""
        if not isinstance(group, CounterGroup):
            group = CounterGroup(group)
        with OBS_LATCH:
            self._groups[name] = group
        return group

    def histogram(self, name: str, edges: Iterable[float] | None = None) -> Histogram:
        with OBS_LATCH:
            existing = self._histograms.get(name)
            if existing is not None:
                return existing
            histogram = Histogram(name, edges)
            self._histograms[name] = histogram
            return histogram

    def before_snapshot(self, fn) -> None:
        """Run ``fn`` (no obs latch held) before each snapshot and reset."""
        self._flushers.append(fn)

    def register_gauge(self, name: str, fn) -> Gauge:
        """Register a sampled instantaneous metric (see :class:`Gauge`)."""
        gauge = Gauge(name, fn)
        with OBS_LATCH:
            self._gauges[name] = gauge
        return gauge

    # ------------------------------------------------------------ queries

    def groups(self) -> dict[str, CounterGroup]:
        return dict(self._groups)

    def histograms(self) -> dict[str, Histogram]:
        return dict(self._histograms)

    def gauges(self) -> dict[str, Gauge]:
        return dict(self._gauges)

    def snapshot(self) -> dict:
        """Deep, immutable-by-copy snapshot of every registered metric.

        The result contains only plain dicts, ints, floats and None, so
        it round-trips through strict JSON and never aliases live state.
        """
        # Flushers and gauges first, *outside* the obs latch: they may take
        # engine latches (the lock-manager latch for siread_lock_count), which
        # rank below the obs leaf and must not nest under it.
        for flush in self._flushers:
            flush()
        with OBS_LATCH:
            gauge_list = list(self._gauges.values())
        gauges = {gauge.name: json_safe(gauge.read()) for gauge in gauge_list}
        with OBS_LATCH:
            return {
                "counters": {
                    name: group.snapshot() for name, group in self._groups.items()
                },
                "histograms": {
                    name: histogram.snapshot()
                    for name, histogram in self._histograms.items()
                },
                "gauges": gauges,
            }

    def reset(self) -> None:
        for flush in self._flushers:
            flush()
        with OBS_LATCH:
            for group in self._groups.values():
                group.reset()
            for histogram in self._histograms.values():
                histogram.reset()
