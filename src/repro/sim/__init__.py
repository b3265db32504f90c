"""Discrete-event concurrency simulation.

The paper's evaluation measures wall-clock throughput of C engines under
real thread concurrency; the GIL makes that meaningless in Python, so the
benchmarks here drive the *real* engine (every lock wait, abort and
conflict is genuine) while simulating the passage of time: CPU cost per
operation on a configurable number of cores, commit log flushes with
group commit, lock waits that suspend simulated clients, and periodic
deadlock sweeps.  Each simulated client is one generator process that
yields the simulated time, wait completion or log flush it needs next
(:mod:`repro.sim.scheduler`).  Throughput-vs-MPL curves therefore
preserve the paper's shapes: who blocks, who aborts and who waits for
the disk are all decided by the actual concurrency control code.

Transaction programs are generator functions yielding
:mod:`~repro.sim.ops` descriptors; the same programs run under the
simulator, the exhaustive interleaving driver, and plain sequential
executors.
"""

from repro.sim.ops import (
    Compute,
    Delete,
    Get,
    IndexLookup,
    IndexScan,
    Insert,
    Read,
    ReadForUpdate,
    Rollback,
    Scan,
    Write,
)
from repro.sim.metrics import SimResult
from repro.sim.scheduler import SimConfig, Simulator
from repro.sim.workload import Mix, Workload
from repro.sim.interleave import run_interleaving, all_interleavings, exhaustive_outcomes
from repro.sim.direct import run_program

__all__ = [
    "Read",
    "Get",
    "ReadForUpdate",
    "Write",
    "Insert",
    "Delete",
    "Scan",
    "IndexScan",
    "IndexLookup",
    "Compute",
    "Rollback",
    "SimConfig",
    "Simulator",
    "SimResult",
    "Mix",
    "Workload",
    "run_program",
    "run_interleaving",
    "all_interleavings",
    "exhaustive_outcomes",
]
