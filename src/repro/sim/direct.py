"""Direct (non-simulated) program execution.

Runs a transaction program against the engine in the calling thread,
blocking through its waits.  Used by examples and tests that need the
declarative programs of :mod:`repro.workloads` without the simulator.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.engine.database import Database
from repro.engine.isolation import IsolationLevel
from repro.engine.transaction import block_on
from repro.errors import CompletionWaitRequired
from repro.sim.ops import ProgramRun


def run_program(
    db: Database,
    program: Generator,
    isolation: IsolationLevel | str = IsolationLevel.SERIALIZABLE_SSI,
    txn=None,
) -> Any:
    """Execute a program generator in one transaction and commit it —
    or, given ``txn``, inside that transaction, leaving its commit to
    the caller.

    Returns the program's return value.  Abort errors (unsafe, conflict,
    deadlock, constraint) and application errors propagate to the caller
    with the transaction already rolled back.
    """
    if txn is None:
        run = ProgramRun(db, db.begin(isolation), program, db.commit)
    else:
        run = ProgramRun(db, txn, program)
    while True:
        try:
            if not run.step():
                return run.value
        except CompletionWaitRequired as wait:
            block_on(wait)
