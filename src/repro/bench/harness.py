"""Experiment runner.

An :class:`Experiment` names a workload, an engine configuration, the
isolation levels to compare and the MPL sweep — one per figure in the
paper's Chapter 6.  :func:`run_experiment` executes the full grid and
returns the throughput/error series that the benchmark files print.

Grid cells are independent — each builds its own database, regenerates
its workload data and seeds its RNG streams from ``sim_config.seed``
alone — so every cell is reproducible bit for bit on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.sim.metrics import SimResult
from repro.sim.scheduler import SimConfig, Simulator
from repro.sim.workload import Workload

#: isolation levels compared in most figures, in the paper's order
DEFAULT_LEVELS = ("si", "ssi", "s2pl")


@dataclass(slots=True)
class Experiment:
    """One reproducible experiment (a figure or table of the paper).

    Attributes:
        exp_id: e.g. "fig6.1".
        title: human-readable description (the figure caption).
        workload_factory: builds a fresh Workload (data regenerated per run).
        engine_config_factory: builds the engine configuration.
        sim_config: simulation parameters.
        levels: isolation levels to sweep.
        mpls: multiprogramming levels to sweep.
        expectation: one line describing the paper's qualitative result,
            echoed into EXPERIMENTS.md.
    """

    exp_id: str
    title: str
    workload_factory: Callable[[], Workload]
    engine_config_factory: Callable[[], EngineConfig]
    sim_config: SimConfig
    levels: Sequence[str] = DEFAULT_LEVELS
    mpls: Sequence[int] = (1, 2, 5, 10, 20)
    expectation: str = ""


@dataclass(slots=True)
class ExperimentResult:
    """Grid of SimResults: series[level] = [result per MPL]."""

    experiment: Experiment
    series: dict = field(default_factory=dict)
    #: lazily built lookup: (level, mpl) -> SimResult.  Rebuilt whenever
    #: the series grid grows, so callers may keep appending results.
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def result(self, level: str, mpl: int) -> SimResult:
        """The run at ``(level, mpl)`` — an indexed lookup, with errors
        that name what the grid actually holds."""
        if level not in self.series:
            available = ", ".join(sorted(self.series)) or "<none>"
            raise KeyError(
                f"no series for isolation level {level!r}; "
                f"available levels: {available}"
            )
        if len(self._index) != sum(len(runs) for runs in self.series.values()):
            self._index = {
                (lvl, run.mpl): run
                for lvl, runs in self.series.items()
                for run in runs
            }
        found = self._index.get((level, mpl))
        if found is None:
            mpls = ", ".join(
                str(run.mpl) for run in self.series[level]
            ) or "<none>"
            raise KeyError(
                f"no run at mpl={mpl} for level {level!r}; "
                f"available MPLs: {mpls}"
            )
        return found

    def throughput(self, level: str, mpl: int) -> float:
        return self.result(level, mpl).throughput

    def best_mpl(self, level: str) -> int:
        return max(self.series[level], key=lambda r: r.throughput).mpl

    def peak_throughput(self, level: str) -> float:
        return max(result.throughput for result in self.series[level])

    def to_dict(self) -> dict:
        """Strictly-JSON-safe export of the whole grid: experiment
        identity plus every per-(level, MPL) result including the engine
        telemetry snapshot (see :meth:`SimResult.to_dict`)."""
        experiment = self.experiment
        return {
            "experiment": {
                "exp_id": experiment.exp_id,
                "title": experiment.title,
                "expectation": experiment.expectation,
                "levels": list(experiment.levels),
                "mpls": list(experiment.mpls),
            },
            "series": {
                level: [result.to_dict() for result in results]
                for level, results in self.series.items()
            },
        }


def _run_cell(experiment: Experiment, level: str, mpl: int) -> SimResult:
    """One grid cell: fresh database, fresh data, one simulation run."""
    database = Database(experiment.engine_config_factory())
    workload = experiment.workload_factory()
    workload.setup(database)
    simulator = Simulator(database, workload, level, mpl, experiment.sim_config)
    return simulator.run()


def run_experiment(
    experiment: Experiment,
    mpls: Sequence[int] | None = None,
    levels: Sequence[str] | None = None,
) -> ExperimentResult:
    """Run the full (level x MPL) grid.  ``mpls``/``levels`` override the
    experiment's sweep (benchmark files use shorter grids than a full
    reproduction run)."""
    outcome = ExperimentResult(experiment=experiment)
    for level in levels or experiment.levels:
        outcome.series[level] = [
            _run_cell(experiment, level, mpl) for mpl in mpls or experiment.mpls
        ]
    return outcome
