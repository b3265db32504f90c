"""The engine's per-operation counters stay exact under threads.

``reads``, ``writes``, ``scans`` and ``commits`` are tallied on each
transaction and folded into ``db.stats`` as it ends, with no latch per
operation.  Four client threads — two at ``si``, two at ``ssi`` — run a
contended SmallBank mix (with first-committer-wins, unsafe and
application aborts) plus whole-table scans; at quiescence the counters
must equal what the programs themselves saw complete.
"""

import random
import sys
import threading

from repro import Database, EngineConfig
from repro.exec.stress import drive_threads
from repro.sim.ops import Delete, Get, Insert, Read, ReadForUpdate, Scan, Write
from repro.workloads.smallbank import CHECKING, make_smallbank

CUSTOMERS = 8


class Tally:
    """What the programs saw complete, kept by the test itself."""

    def __init__(self):
        self._lock = threading.Lock()
        self.counts = {"reads": 0, "writes": 0, "scans": 0, "commits": 0}

    def add(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def counted(self, program):
        """Relay ``program``'s ops, counting each one whose result came
        back: a point read is one row read, a scan one scan plus a row
        per row it returned (the table has no tombstones)."""
        value = None
        while True:
            try:
                op = program.send(value)
            except StopIteration as stop:
                return stop.value
            value = yield op
            if isinstance(op, (Read, Get, ReadForUpdate)):
                self.add("reads")
            elif isinstance(op, (Write, Insert, Delete)):
                self.add("writes")
            elif isinstance(op, Scan):
                self.add("scans")
                self.add("reads", len(value))


def scan_checking():
    rows = yield Scan(CHECKING)
    return sum(balance for _key, balance in rows)


def test_counters_equal_program_tallies_under_threads():
    workload = make_smallbank(customers=CUSTOMERS)
    db = Database(EngineConfig())
    workload.setup(db)
    tally = Tally()
    outcomes = []

    def next_program(rng: random.Random):
        if rng.random() < 0.1:
            return "scan", tally.counted(scan_checking())
        label, program = workload.next_transaction(rng)
        return label, tally.counted(program)

    def record(label, reason):
        outcomes.append(reason)
        if reason is None:
            tally.add("commits")

    def drive(level, seed):
        drive_threads(db, level, 2, 120, seed, next_program, record)

    runners = [
        threading.Thread(target=drive, args=(level, seed))
        for seed, level in enumerate(("si", "ssi"), start=3)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # preempt often: a lost update must show
    try:
        for thread in runners:
            thread.start()
        for thread in runners:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in runners)

    assert len(outcomes) == 480
    assert any(reason is not None for reason in outcomes)  # aborts ran too
    assert db.active_count() == 0
    stats = db.metrics.snapshot()["counters"]["engine"]
    assert {key: stats[key] for key in tally.counts} == tally.counts
    assert tally.counts["scans"] > 0
