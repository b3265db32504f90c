"""The four perfbench workloads: table set-up and seeded program sequences.

A workload is a fixed-length sequence of transaction programs generated
from the seed alone.  Program kinds are dealt from a shuffled deck, so
every seed runs exactly the same mix and only keys, amounts and order
vary.  Programs are the generator functions of ``repro.workloads``
(yielding ``repro.sim.ops`` descriptors), so the embedded driver and the
wire driver execute the same sequence.

Sizes are frozen: they were chosen so that one replay takes 0.3-2 s on the
reference host and a run fits at least five replays per isolation level.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Generator

from repro.sim.ops import Scan
from repro.workloads import sibench, smallbank


@dataclass(frozen=True, slots=True)
class Program:
    """One transaction of the sequence."""

    kind: str
    #: read-only programs feed ``query_p50_ms``, the rest ``update_p50_ms``
    is_query: bool
    start: Callable[[], Generator]


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    why: str
    #: "embedded" (single-threaded round robin) or "wire" (loopback TCP)
    driver: str
    clients: int
    transactions: int
    durable: bool
    tables: tuple[str, ...]
    setup: Callable[[object], None]
    generate: Callable[[random.Random, int], list[Program]]


# ------------------------------------------------------------- SmallBank

_SMALLBANK_KINDS = ("balance", "deposit_checking", "transact_saving",
                    "amalgamate", "write_check")


def _smallbank_program(kind: str, rng: random.Random, customers: int) -> Program:
    name = smallbank.customer_name(rng.randrange(customers))
    amount = float(rng.randint(1, 100))
    if kind == "balance":
        return Program(kind, True, lambda: smallbank.balance(name))
    if kind == "deposit_checking":
        return Program(kind, False,
                       lambda: smallbank.deposit_checking(name, amount))
    if kind == "transact_saving":
        return Program(kind, False,
                       lambda: smallbank.transact_saving(name, amount))
    if kind == "amalgamate":
        other = smallbank.customer_name(rng.randrange(customers))
        return Program(kind, False, lambda: smallbank.amalgamate(name, other))
    return Program(kind, False, lambda: smallbank.write_check(name, amount))


def _deal(rng: random.Random, kinds: tuple[str, ...], count: int) -> list[str]:
    """A shuffled deck holding every kind ``count / len(kinds)`` times."""
    if count % len(kinds):
        raise ValueError(f"{count} transactions do not split over {kinds}")
    deck = list(kinds) * (count // len(kinds))
    rng.shuffle(deck)
    return deck


def _smallbank(name: str, why: str, *, driver: str, customers: int,
               clients: int, transactions: int, durable: bool) -> Workload:
    def generate(rng: random.Random, count: int) -> list[Program]:
        return [_smallbank_program(kind, rng, customers)
                for kind in _deal(rng, _SMALLBANK_KINDS, count)]

    return Workload(
        name=name, why=why, driver=driver, clients=clients,
        transactions=transactions, durable=durable,
        tables=(smallbank.ACCOUNT, smallbank.SAVING, smallbank.CHECKING,
                smallbank.CONFLICT),
        setup=lambda db: smallbank.setup_smallbank(db, customers),
        generate=generate,
    )


# --------------------------------------------------------------- sibench

SCAN_ROWS = 4096
SCAN_WINDOW = 1024


def _window_query(lo: int, hi: int) -> Generator:
    """sibench's query restricted to a key window: the id holding the
    smallest value in [lo, hi]."""
    rows = yield Scan(sibench.TABLE, lo, hi)
    return min(rows, key=lambda row: (row[1], row[0]))[0]


def _sibench_generate(rng: random.Random, count: int) -> list[Program]:
    programs = []
    for kind in _deal(rng, ("query", "update", "update", "update"), count):
        if kind == "query":
            lo = rng.randrange(SCAN_ROWS - SCAN_WINDOW + 1)
            hi = lo + SCAN_WINDOW - 1
            programs.append(Program(
                kind, True, lambda lo=lo, hi=hi: _window_query(lo, hi)))
        else:
            item = rng.randrange(SCAN_ROWS)
            programs.append(Program(
                kind, False, lambda item=item: sibench.update(item)))
    return programs


# ---------------------------------------------------------------- the set

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        _smallbank(
            "smallbank_hot",
            "contended point reads/writes: engine, locking and the SSI "
            "tracker do the work; scans, WAL and server do none",
            driver="embedded", customers=100, clients=16,
            transactions=4000, durable=False,
        ),
        Workload(
            name="sibench_scan",
            why="1024-row window scans among single-row updates: batch "
                "SIREAD/gap grants and their release, storage scan chunks, "
                "snapshot visibility",
            driver="embedded", clients=8, transactions=800, durable=False,
            tables=(sibench.TABLE,),
            setup=lambda db: sibench.setup_sibench(db, SCAN_ROWS),
            generate=_sibench_generate,
        ),
        _smallbank(
            "smallbank_durable",
            "low-contention SmallBank with a file WAL flushed on every "
            "commit: WAL append/flush and the commit path dominate",
            driver="embedded", customers=1000, clients=8,
            transactions=640, durable=True,
        ),
        _smallbank(
            "smallbank_wire",
            "the same low-contention SmallBank over loopback TCP: client, "
            "server framing/codec/dispatch and session hand-off dominate",
            driver="wire", customers=1000, clients=2,
            transactions=600, durable=False,
        ),
    )
}


def generate(workload: Workload, seed: int) -> list[Program]:
    """The workload's program sequence for ``seed`` (same seed, same
    sequence, in any process)."""
    rng = random.Random(f"perfbench:{workload.name}:{seed}")
    return workload.generate(rng, workload.transactions)
