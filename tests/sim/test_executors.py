"""One program, four executors, one outcome.

The direct runner, a session, the discrete-event simulator and the
interleaving driver all step programs through :class:`ProgramRun`, so
each must report the same outcome, abort bucket and return value.  Cases
that wait pair the program ``P`` with another transaction ``B``: B runs
its first step before P begins and its next step once P is waiting —
through the schedule slot order for the interleaving driver, from a
helper thread for the direct runner and the session (whose caller
blocks, or runs the session's event loop), and as a simulated event for
the simulator.  A case without a
slot order instead has B hold its lock until P is done, so only P's
``lock_timeout`` ends the wait (for the interleaving driver, at the
stall where no sweep finds a deadlock).
"""

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import Callable

import pytest

from repro import Database, EngineConfig
from repro.engine.config import DeadlockMode
from repro.errors import CompletionWaitRequired, TransactionAbortedError
from repro.session import SessionScheduler
from repro.sim.direct import run_program
from repro.sim.interleave import run_interleaving
from repro.sim.ops import (
    ABORTS, Compute, Insert, ProgramRun, Read, Rollback, Write, abort_reason,
)
from repro.sim.scheduler import SimConfig, Simulator
from repro.sim.workload import Mix, Workload


@dataclass(frozen=True)
class Case:
    program: Callable
    level: str
    status: str
    value: object = None
    #: the other transaction B (a program factory taking the database)
    #: and the interleaving's slot order (0 = B); no order: B holds its
    #: lock until P is done
    other: Callable | None = None
    order: tuple = ()
    lock_timeout: float | None = None
    deadlock_mode: DeadlockMode = DeadlockMode.IMMEDIATE


def committing():
    value = yield Read("t", 1)
    yield Write("t", 1, value + "!")
    return value


def rolling_back():
    yield Write("t", 2, "lost")
    yield Rollback("never mind")


def duplicate_insert():
    yield Write("t", 1, "w")
    yield Insert("t", 1, "dup")


def missing_key():
    yield Read("t", 99)


def write_one_then_two():
    yield Write("t", 1, "p")
    yield Write("t", 2, "p")
    return "done"


def write_two(db):
    yield Write("t", 2, "b")


def write_two_then_one(db):
    yield Write("t", 2, "b")
    yield Write("t", 1, "b")


def write_two_then_doom_the_waiter(db):
    yield Write("t", 2, "b")
    yield Compute(0)
    # B's second step: the program waiting on B's lock is interrupted.
    (waiter,) = {request.owner for request in db.locks.waiting_requests()}
    db.doom(waiter, TransactionAbortedError("interrupted", txn_id=waiter.id))


CASES = {
    "commit": Case(committing, "ssi", "committed", "a"),
    "rollback": Case(rolling_back, "ssi", "constraint"),
    "duplicate_key": Case(duplicate_insert, "ssi", "constraint"),
    "key_not_found": Case(missing_key, "ssi", "constraint"),
    # P waits on B's lock on 2; B's commit grants it.
    "wait_granted": Case(write_one_then_two, "s2pl", "committed", "done",
                         other=write_two, order=(0, 1, 1, 0, 1, 1)),
    # P waits on B's lock on 2; B then waits on P's lock on 1, and a
    # periodic sweep dooms the youngest transaction of the cycle — P —
    # whose wait is denied.
    "wait_denied": Case(write_one_then_two, "s2pl", "deadlock",
                        other=write_two_then_one, order=(0, 1, 1, 0, 1, 0, 0),
                        deadlock_mode=DeadlockMode.PERIODIC),
    # P waits on B's lock on 2, which B holds until P has timed out.
    "wait_timed_out": Case(write_one_then_two, "s2pl", "timeout",
                           other=write_two, lock_timeout=0.05),
    # P waits on B's lock on 2; B's next step dooms P, ending the wait.
    "wait_doomed": Case(write_one_then_two, "s2pl", "aborted",
                        other=write_two_then_doom_the_waiter,
                        order=(0, 1, 1, 0, 1, 0)),
}


def setup(db) -> None:
    db.create_table("t")
    db.load("t", [(1, "a"), (2, "b")])


def start_other(db, case: Case) -> ProgramRun | None:
    """Begin B and run its first step, before P begins."""
    if case.other is None:
        return None
    other = ProgramRun(db, db.begin(case.level), case.other(db), db.commit)
    other.step()
    return other


def step_other(other: ProgramRun) -> None:
    try:
        other.step()
    except CompletionWaitRequired:
        pass  # B waits on P; P's abort grants it


def finish_other(other: ProgramRun | None) -> None:
    if other is not None:
        while other.status == "running":
            other.step()
        assert other.status == "committed"


def blocking(db, case: Case, run: Callable) -> tuple[str, object]:
    """Run P on this thread through ``run``; step B once P waits."""
    setup(db)
    other = start_other(db, case)
    helper = None
    if case.order:
        def interfere() -> None:
            deadline = time.monotonic() + 10
            while db.locks.residue()["waiters"] == 0:
                assert time.monotonic() < deadline, "P never waited"
                time.sleep(0.001)
            step_other(other)

        helper = threading.Thread(target=interfere)
        helper.start()
    try:
        outcome = ("committed", run(case.program(), case.level))
    except ABORTS as error:
        outcome = (abort_reason(error), None)
    if helper is not None:
        helper.join(timeout=10)
        assert not helper.is_alive()
    finish_other(other)
    return outcome


def via_direct(db, case: Case) -> tuple[str, object]:
    return blocking(db, case, lambda program, level: run_program(db, program, level))


def via_session(db, case: Case) -> tuple[str, object]:
    scheduler = SessionScheduler(db)
    session = scheduler.session()

    async def run(program, level):
        # bounded: a lost wake would leave the loop idle forever
        return await asyncio.wait_for(
            session.invoke("run_program", program, level), timeout=30)

    try:
        return blocking(db, case, lambda program, level: asyncio.run(
            run(program, level)))
    finally:
        scheduler.shutdown()


class _OneRun(Simulator):
    """One client, one transaction: keeps the finished run."""

    finished = None

    def _client(self, rng):
        self.finished = yield from self._transaction(rng)


def via_simulator(db, case: Case) -> tuple[str, object]:
    setup(db)
    other = start_other(db, case)
    workload = Workload("one", setup, Mix([("p", 1.0, lambda rng: case.program())]))
    sim = _OneRun(db, workload, case.level, 1, SimConfig(duration=1.0, warmup=0.0))
    if case.order:
        # Ops take tens of simulated µs: P is waiting long before this.
        sim.schedule_at(0.01, lambda: step_other(other))
    sim.run()
    finish_other(other)
    return sim.finished.status, sim.finished.value


def via_interleaving(db, case: Case) -> tuple[str, object]:
    programs, order, holder = [case.program], [0] * 4, None
    if case.order:
        programs = [lambda: case.other(db), case.program]
        order = list(case.order)

    def prepare(db) -> None:
        nonlocal holder
        setup(db)
        if not case.order:  # B holds its lock outside the schedule
            holder = start_other(db, case)

    outcome = run_interleaving(prepare, programs, order, case.level,
                               db_factory=lambda _config: db)
    if case.order:
        assert outcome.statuses[0] == "committed"
    finish_other(holder)
    return outcome.statuses[len(programs) - 1], outcome.values[len(programs) - 1]


EXECUTORS = {
    "direct": via_direct,
    "session": via_session,
    "simulator": via_simulator,
    "interleaving": via_interleaving,
}


@pytest.mark.parametrize("case_name", sorted(CASES))
def test_every_executor_reports_the_same_outcome(case_name):
    case = CASES[case_name]
    for name, execute in EXECUTORS.items():
        db = Database(EngineConfig(deadlock_mode=case.deadlock_mode,
                                   lock_timeout=case.lock_timeout))
        expected_aborts = dict.fromkeys(db.stats["aborts"], 0)
        if case.status != "committed":
            expected_aborts[case.status] = 1
        assert execute(db, case) == (case.status, case.value), name
        assert dict(db.stats["aborts"]) == expected_aborts, name
        assert db.active_count() == 0, name
