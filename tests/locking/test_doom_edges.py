"""A doom must not hide a deadlock through its victim.

A doomed transaction keeps its locks until it aborts, so the
transactions waiting on it still wait for it: the doom cancels only the
victim's own waits.  And a doomed transaction can still enqueue a wait —
a doom that lands between an operation's doom check and its lock
request, or a PAGE write whose page-lock reader report dooms the writer
before it takes its record lock — so dooming it again must cancel that
wait, or a cycle through it could never be broken.
"""

import pytest

from repro import Database, EngineConfig
from repro.engine.config import DeadlockMode
from repro.errors import UnsafeError
from repro.locking.deadlock import youngest
from repro.locking.manager import RequestState, record_resource
from repro.locking.modes import LockMode

X = LockMode.EXCLUSIVE
A, B = record_resource("t", "a"), record_resource("t", "b")


def doomed_holder_waits_on_its_waiter(mode: DeadlockMode):
    """T1 holds a, T2 holds b and waits on a; T1 is doomed, then
    requests b: a cycle T1 -> T2 -> T1 through the doomed T1."""
    db = Database(EngineConfig(deadlock_mode=mode))
    db.create_table("t")
    db.load("t", [("a", 0), ("b", 0)])
    t1, t2 = db.begin("s2pl"), db.begin("s2pl")
    assert db.locks.acquire(t1, A, X).granted
    assert db.locks.acquire(t2, B, X).granted
    assert not db.locks.acquire(t2, A, X).granted
    unsafe = UnsafeError("unsafe pattern of conflicts", txn_id=t1.id)
    db.doom(t1, unsafe)
    assert db.locks.waits_for(t2.id) == {t1.id}
    assert db.locks.waits_for(t1.id) == set()
    return db, t1, t2, unsafe, db.locks.acquire(t1, B, X).request


def test_immediate_detection_denies_the_doomed_waiter_with_its_doom():
    db, t1, t2, unsafe, request = doomed_holder_waits_on_its_waiter(
        DeadlockMode.IMMEDIATE)
    assert request.state is RequestState.DENIED
    assert request.error is unsafe
    assert t1.doom_error is unsafe
    assert t2.doom_error is None
    with pytest.raises(UnsafeError):
        db.write(t1, "t", "b", 1)
    assert db.locks.holds(t2, A, X)  # T1's abort granted T2's wait


def test_periodic_sweep_finds_the_cycle_through_the_doomed_waiter():
    db, t1, t2, unsafe, request = doomed_holder_waits_on_its_waiter(
        DeadlockMode.PERIODIC)
    assert request.state is RequestState.WAITING
    victims = db.sweep_deadlocks()
    assert victims
    # Whichever member is the victim, its wait is cancelled: the cycle
    # is broken and the other transaction can run to completion.
    assert db.locks.find_deadlock_victims(youngest) == []
    assert db.locks.residue()["waiters"] == 1
