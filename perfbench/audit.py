"""Correctness checks on an audit replay (history recording on).

Every check returns a list of problems; an empty list means ``correct``.
"""

from __future__ import annotations

from repro import Database
from repro.errors import TableError
from repro.sgt import check_serializable

from perfbench.driver import Replay
from perfbench.workloads import Workload


def check_replay(workload: Workload, replay: Replay) -> list[str]:
    """MVSG-serializable at SSI, nothing left in the lock table, and for a
    durable workload a database recovered from the log file alone equal
    to the live one."""
    problems = []
    db = replay.db
    if replay.failed:
        problems.append(f"{replay.failed} transactions failed in the audit replay")
    if replay.level == "ssi":
        report = check_serializable(db.history)
        if not report.serializable:
            problems.append(f"audit replay is not serializable: {report.describe()}")
    db.cleanup_suspended()
    locks = db.locks
    residue = {
        "granted locks": locks.table_size(),
        "residual_siread": locks.siread_lock_count(),
        "waiting requests": len(locks.waiting_requests()),
        "active transactions": db.active_count(),
        "suspended transactions": db.suspended_count(),
    }
    problems += [f"{count} {what} left after the audit replay"
                 for what, count in residue.items() if count]
    if workload.durable:
        problems += _compare_recovered(workload, db, replay.recovered)
    return problems


def _rows(db, table: str) -> dict:
    reader = db.begin("si")
    try:
        return dict(db.scan(reader, table))
    finally:
        db.abort(reader)


def _compare_recovered(workload: Workload, live, recovered) -> list[str]:
    """The bulk load is not logged (it plays the part of a checkpoint), so
    the log alone rebuilds exactly the rows some transaction wrote.  Each
    such row must equal the live one, and every live row the log does not
    mention must still hold its loaded value."""
    problems = []
    loaded = Database()
    workload.setup(loaded)
    for table in workload.tables:
        expected = _rows(loaded, table)
        try:
            expected.update(_rows(recovered, table))
        except TableError:
            pass  # a table nobody wrote to is absent from the log
        actual = _rows(live, table)
        if actual != expected:
            differing = sum(1 for key in actual.keys() | expected.keys()
                            if actual.get(key) != expected.get(key))
            problems.append(
                f"recovery differs from the live database on {differing} "
                f"rows of {table}")
    return problems
