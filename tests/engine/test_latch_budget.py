"""The latch budget of a SmallBank transaction.

Under ``REPRO_LATCH_DEBUG`` every engine latch and the obs latch count
their acquisitions, and ``Database.describe()`` reports them by name.  A
point operation takes at most its lock-manager call's latch; the rest of
a transaction's latching happens once per transaction (begin, snapshot,
commit).  This test pins that budget so a return to per-operation
latching — a table latch per point lookup, an obs latch per counter
bump, the tracker latch around a Fig 3.4 check with nothing to mark —
fails it.  The mix runs in a child interpreter, because the obs latch is
made when :mod:`repro.obs.registry` is imported.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: acquisitions per transaction; the budget was 20.6 (si) and 32.4 (ssi)
#: while each point lookup, counter and Fig 3.4 check took a latch, and
#: 20 (ssi, 17.7 spent) while a point SIREAD was a lock-manager call and
#: every SSI commit observed two histograms under the obs latch
BUDGET = {"si": 10, "ssi": 12}

MIX = """
import json, random, sys
from repro import Database, EngineConfig
from repro.errors import ConstraintError, TransactionAbortedError
from repro.sim.direct import run_program
from repro.workloads.smallbank import make_smallbank

TXNS = 400
report = {}
for level in ("si", "ssi"):
    workload = make_smallbank(customers=100)
    db = Database(EngineConfig())
    workload.setup(db)
    rng = random.Random(11)
    before = db.describe()["latches"]
    for _ in range(TXNS):
        _name, program = workload.next_transaction(rng)
        try:
            run_program(db, program, isolation=level)
        except (ConstraintError, TransactionAbortedError):
            pass
    after = db.describe()["latches"]
    per_latch = report[level] = {}
    for name, count in after.items():
        base = name.split("[")[0]  # one entry for all table latches
        spent = (count - before.get(name, 0)) / TXNS
        per_latch[base] = per_latch.get(base, 0) + spent
json.dump(report, sys.stdout)
"""


def test_smallbank_latch_acquisitions_per_transaction():
    env = {**os.environ, "REPRO_LATCH_DEBUG": "1", "PYTHONPATH": str(SRC)}
    child = subprocess.run(
        [sys.executable, "-c", MIX], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    for level, limit in BUDGET.items():
        per_latch = report[level]
        assert {"txn", "commit", "table", "lock", "obs"} <= set(per_latch)
        assert sum(per_latch.values()) <= limit, (level, per_latch)
