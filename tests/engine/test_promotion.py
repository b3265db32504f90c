"""Runtime behaviour of the application-level fixes (Sections 2.6, 2.8.5).

The static analysis says materialisation/promotion make SmallBank
serializable at plain SI; these tests check the *runtime* mechanism: the
added writes turn the dangerous interleavings into first-committer-wins
conflicts, so at SI one transaction aborts with "conflict" instead of
both committing into a corrupt state.
"""

import pytest

from repro import Database, EngineConfig
from repro.errors import TransactionAbortedError
from repro.sgt.checker import check_serializable
from repro.sim.interleave import all_interleavings, run_interleaving
from repro.sim.ops import ProgramRun
from repro.workloads.smallbank import (
    customer_name,
    setup_smallbank,
    transact_saving_variant,
    write_check_variant,
)

NAME = customer_name(0)


def setup(db):
    setup_smallbank(db, customers=2)


def _count_ops(factory):
    """Ops a program issues when run alone (dry run on a scratch DB)."""
    db = Database(EngineConfig())
    setup(db)
    run = ProgramRun(db, db.begin("si"), factory())
    count = 0
    while run.op is not None:
        run.step()
        count += 1
    run.txn.abort()
    return count


def steps_of(variant):
    """(program factories, step counts) for the Bal/WC/TS dangerous
    triple — the cycle of Fig 2.9 needs all three (Bal -> WC -> TS -> Bal)."""
    from repro.workloads.smallbank import balance

    def bal():
        return balance(NAME, variant)

    def wc():
        return write_check_variant(NAME, 1500.0, variant)

    def ts():
        return transact_saving_variant(NAME, -600.0, variant)

    programs = [bal, wc, ts]
    return programs, [_count_ops(factory) + 1 for factory in programs]


def sampled_violations(variant, samples=400, seed=11):
    """Run randomly sampled interleavings of Bal/WC/TS at plain SI;
    count non-serializable committed histories (the SmallBank anomaly:
    Bal reports a total implying no overdraft penalty while WC and TS
    interleave into a penalised final state)."""
    import random

    rng = random.Random(seed)
    programs, counts = steps_of(variant)
    slots = [index for index, count in enumerate(counts) for _ in range(count)]
    violations = 0
    for _round in range(samples):
        rng.shuffle(slots)
        outcome = run_interleaving(
            setup, programs, list(slots), isolation="si",
            engine_config=EngineConfig(record_history=True),
        )
        if not check_serializable(outcome.db.history).serializable:
            violations += 1
    return violations


def test_plain_smallbank_has_si_anomalies():
    assert sampled_violations("plain") > 0


@pytest.mark.parametrize(
    "variant",
    ["materialize_wt", "promote_wt", "materialize_bw", "promote_bw"],
)
def test_fixes_make_bal_wc_ts_serializable_at_si(variant):
    assert sampled_violations(variant) == 0


def test_promotion_uses_fcw_not_unsafe():
    """The fixed programs serialise through write locks and the
    first-committer-wins rule at plain SI — no SSI machinery involved."""
    from repro.errors import LockWaitRequired, UpdateConflictError

    db = Database(EngineConfig())
    setup(db)
    wc = db.begin("si")
    ts = db.begin("si")

    # WC (promoted): identity write on the Saving row.
    cid = db.read(wc, "account", NAME)
    saving = db.read_for_update(wc, "saving", cid)
    db.write(wc, "saving", cid, saving)  # the promotion write
    checking = db.read(wc, "checking", cid)

    # TS reads its snapshot, then blocks on the promoted row.
    ts_cid = db.read(ts, "account", NAME)
    ts_saving = db.read(ts, "saving", ts_cid)
    with pytest.raises(LockWaitRequired):
        db.write(ts, "saving", ts_cid, ts_saving - 600.0)

    # WC finishes; TS's retry dies on first-committer-wins.
    db.write(wc, "checking", cid, checking - 1500.0 - 1.0)
    db.commit(wc)
    with pytest.raises(UpdateConflictError):
        db.write(ts, "saving", ts_cid, ts_saving - 600.0)
    assert ts.is_aborted
    assert db.stats["aborts"]["unsafe"] == 0
    assert db.stats["aborts"]["conflict"] == 1
