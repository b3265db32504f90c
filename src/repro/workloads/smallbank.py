"""The SmallBank benchmark (paper Sections 2.8.2-2.8.5 and 5.1).

Three tables — Account(Name -> CustomerID), Saving(CustomerID -> Balance),
Checking(CustomerID -> Balance) — and five transaction programs chosen
with equal probability.  Its static dependency graph contains the
dangerous structure Bal -> WC -> TS -> Bal with WriteCheck as the pivot,
so the mix is *not* serializable under plain SI.

The module also provides the four application-level fixes of Section
2.8.5 (materialise/promote on either vulnerable edge), used by the
analysis tests and the mixed-technique ablation bench.
"""

from __future__ import annotations

import random
from typing import Generator

from repro.engine.database import Database
from repro.sim.ops import Get, Read, ReadForUpdate, Rollback, Write
from repro.sim.workload import Mix, Workload

ACCOUNT = "account"
SAVING = "saving"
CHECKING = "checking"
CONFLICT = "conflict"  # the materialisation table of Section 2.6.1

#: The serializability-restoring program variants of Section 2.8.5.
VARIANTS = ("plain", "materialize_wt", "promote_wt", "materialize_bw", "promote_bw")


def customer_name(index: int) -> str:
    return f"cust{index:07d}"


def setup_smallbank(db: Database, customers: int) -> None:
    """Create and populate the three tables (plus the Conflict table)."""
    for table in (ACCOUNT, SAVING, CHECKING, CONFLICT):
        db.create_table(table)
    db.load(ACCOUNT, ((customer_name(i), i) for i in range(customers)))
    db.load(SAVING, ((i, 1000.0) for i in range(customers)))
    db.load(CHECKING, ((i, 1000.0) for i in range(customers)))
    db.load(CONFLICT, ((i, 0) for i in range(customers)))


# --------------------------------------------------------------- programs
#
# Each program is a generator of ops (see repro.sim.ops).  They follow the
# Berkeley DB adaptations of Section 5.1.1 verbatim, with the variant
# hooks grafted in where Section 2.8.5 prescribes.


def balance(name: str, variant: str = "plain") -> Generator:
    """Bal(N): total balance of a customer.  Read-only in the plain mix."""
    cid = yield Read(ACCOUNT, name)
    if variant == "promote_bw":
        # PromoteBW: identity write on Checking turns Bal's read into an
        # update, breaking the Bal->WC vulnerable edge (Section 2.8.5).
        checking = yield ReadForUpdate(CHECKING, cid)
        yield Write(CHECKING, cid, checking)
    elif variant == "materialize_bw":
        token = yield ReadForUpdate(CONFLICT, cid)
        yield Write(CONFLICT, cid, token + 1)
        checking = yield Read(CHECKING, cid)
    else:
        checking = yield Read(CHECKING, cid)
    saving = yield Read(SAVING, cid)
    return saving + checking


def deposit_checking(name: str, amount: float, variant: str = "plain") -> Generator:
    """DC(N, V): deposit into the checking account."""
    if amount < 0:
        yield Rollback("negative deposit")
    cid = yield Get(ACCOUNT, name)
    if cid is None:
        yield Rollback("unknown customer")
    checking = yield Read(CHECKING, cid)
    yield Write(CHECKING, cid, checking + amount)


def transact_saving(name: str, amount: float, variant: str = "plain") -> Generator:
    """TS(N, V): deposit or withdrawal on the savings account."""
    cid = yield Get(ACCOUNT, name)
    if cid is None:
        yield Rollback("unknown customer")
    saving = yield Read(SAVING, cid)
    if saving + amount < 0:
        yield Rollback("would overdraw savings")
    yield Write(SAVING, cid, saving + amount)


def amalgamate(name1: str, name2: str, variant: str = "plain") -> Generator:
    """Amg(N1, N2): move all funds of customer 1 to customer 2."""
    cid1 = yield Read(ACCOUNT, name1)
    cid2 = yield Read(ACCOUNT, name2)
    saving1 = yield Read(SAVING, cid1)
    checking1 = yield Read(CHECKING, cid1)
    checking2 = yield Read(CHECKING, cid2)
    yield Write(CHECKING, cid2, checking2 + saving1 + checking1)
    yield Write(SAVING, cid1, 0.0)
    yield Write(CHECKING, cid1, 0.0)


def write_check(name: str, amount: float, variant: str = "plain") -> Generator:
    """WC(N, V): write a check, with a $1 penalty on overdraft.

    The pivot of SmallBank's dangerous structure; the WT-edge fixes of
    Section 2.8.5 modify this program.
    """
    cid = yield Read(ACCOUNT, name)
    if variant == "promote_wt":
        # PromoteWT: identity write on Saving makes the WC->TS edge a
        # ww-conflict (Section 2.8.5).
        saving = yield ReadForUpdate(SAVING, cid)
        yield Write(SAVING, cid, saving)
    elif variant == "materialize_wt":
        token = yield ReadForUpdate(CONFLICT, cid)
        yield Write(CONFLICT, cid, token + 1)
        saving = yield Read(SAVING, cid)
    else:
        saving = yield Read(SAVING, cid)
    checking = yield Read(CHECKING, cid)
    if saving + checking < amount:
        yield Write(CHECKING, cid, checking - amount - 1)
    else:
        yield Write(CHECKING, cid, checking - amount)


def transact_saving_variant(name: str, amount: float, variant: str) -> Generator:
    """TS with the MaterializeWT peer write (the other end of the WT edge)."""
    if variant == "materialize_wt":
        cid = yield Get(ACCOUNT, name)
        if cid is None:
            yield Rollback("unknown customer")
        token = yield ReadForUpdate(CONFLICT, cid)
        yield Write(CONFLICT, cid, token + 1)
        saving = yield Read(SAVING, cid)
        if saving + amount < 0:
            yield Rollback("would overdraw savings")
        yield Write(SAVING, cid, saving + amount)
        return
    result = yield from transact_saving(name, amount, variant)
    return result


def write_check_variant(name: str, amount: float, variant: str) -> Generator:
    """WC with the MaterializeBW peer write (the other end of the BW edge)."""
    if variant == "materialize_bw":
        cid = yield Read(ACCOUNT, name)
        token = yield ReadForUpdate(CONFLICT, cid)
        yield Write(CONFLICT, cid, token + 1)
        saving = yield Read(SAVING, cid)
        checking = yield Read(CHECKING, cid)
        if saving + checking < amount:
            yield Write(CHECKING, cid, checking - amount - 1)
        else:
            yield Write(CHECKING, cid, checking - amount)
        return
    result = yield from write_check(name, amount, variant)
    return result


# ----------------------------------------------------------------- workload


def _compound(rng: random.Random, customers: int, variant: str, n_ops: int) -> Generator:
    """Run ``n_ops`` randomly chosen SmallBank operations in one
    transaction — the 'more complex transactions' knob of Section 6.1.4."""
    for _round in range(n_ops):
        single = _single(rng, customers, variant)
        yield from single


def _single(rng: random.Random, customers: int, variant: str) -> Generator:
    choice = rng.randrange(5)
    name = customer_name(rng.randrange(customers))
    amount = float(rng.randint(1, 100))
    if choice == 0:
        return balance(name, variant)
    if choice == 1:
        return deposit_checking(name, amount, variant)
    if choice == 2:
        return transact_saving_variant(name, amount, variant)
    if choice == 3:
        other = customer_name(rng.randrange(customers))
        return amalgamate(name, other, variant)
    return write_check_variant(name, amount, variant)


def make_smallbank(
    customers: int = 100,
    variant: str = "plain",
    ops_per_txn: int = 1,
) -> Workload:
    """Build the SmallBank workload.

    Args:
        customers: table cardinality (contention knob; the Fig 6.1-6.3
            experiments use a small table, Fig 6.4-6.5 use 10x).
        variant: "plain" or one of the Section 2.8.5 fixes.
        ops_per_txn: SmallBank operations per database transaction
            (1 = Figs 6.1/6.2; 10 = the complex workload of Fig 6.3).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")

    def program(rng: random.Random) -> Generator:
        if ops_per_txn == 1:
            return _single(rng, customers, variant)
        return _compound(rng, customers, variant, ops_per_txn)

    mix = Mix([("smallbank", 1.0, program)])
    return Workload(
        name=f"smallbank[{variant},c={customers},n={ops_per_txn}]",
        setup=lambda db: setup_smallbank(db, customers),
        mix=mix,
    )
