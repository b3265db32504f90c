"""The paper's three benchmarks as declarative transaction programs.

* :mod:`repro.workloads.smallbank` — the SmallBank banking mix
  (Sections 2.8.2, 5.1), including the four serializability-restoring
  program transformations (MaterializeWT/PromoteWT/MaterializeBW/PromoteBW).
* :mod:`repro.workloads.sibench` — the read/write microbenchmark of
  Section 5.2.
* :mod:`repro.workloads.tpcc` / :mod:`repro.workloads.tpccpp` — TPC-C
  (Section 2.8.1, simplified per Section 5.3.1) and TPC-C++ with the
  Credit Check transaction (Section 5.3).
"""

from repro.workloads.smallbank import make_smallbank
from repro.workloads.sibench import make_sibench
from repro.workloads.tpcc import TpccScale, setup_tpcc
from repro.workloads.tpccpp import make_tpccpp, make_stock_level_mix

__all__ = [
    "make_smallbank",
    "make_sibench",
    "TpccScale",
    "setup_tpcc",
    "make_tpccpp",
    "make_stock_level_mix",
]
