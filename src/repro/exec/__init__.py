"""Stress execution.

Drives real OS threads through the blocking transaction API — the
concurrency regime the fine-grained latch hierarchy exists for — or
sessions on one event loop, as the wire server runs them.  The
discrete-event simulator (:mod:`repro.sim`) measures the paper's
*algorithms* under controlled interleavings; this package instead
stresses the *implementation*: N clients hammer one database and the
result is checked against workload invariants, the MVSG
serializability oracle, and lock-table cleanliness.
"""

from repro.exec.stress import (
    StressResult,
    final_rows,
    run_session_stress,
    run_threaded_stress,
)

__all__ = [
    "StressResult",
    "final_rows",
    "run_session_stress",
    "run_threaded_stress",
]
