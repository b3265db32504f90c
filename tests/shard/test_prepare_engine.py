"""Engine-level 2PC seam: prepare/commit-prepared and prepared-wins.

The coordinator's correctness leans on three engine guarantees added
for sharding (see ``Database.commit_prepared``): a prepared transaction
certifies at PREPARE and installs nothing; between PREPARE and the
global decision it can no longer lose a conflict (prepared-transaction-
wins, and local committers that would endanger it yield); and the
PREPARE summary renders conflict slots with global-id partners, never
voting a flag for an already-aborted partner.
"""

import pytest

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.errors import TransactionStateError, UnsafeError


def _fresh(**overrides) -> Database:
    db = Database(EngineConfig(**overrides))
    db.create_table("t")
    db.load("t", [("x", 0), ("y", 0)])
    return db


def test_prepare_certifies_but_installs_nothing():
    db = _fresh()
    txn = db.begin("ssi")
    db.write(txn, "t", "x", 1)
    summary = db.prepare_for_commit(txn)
    assert summary == {
        "in": False, "out": False, "in_partner": None, "out_partner": None,
    }
    assert txn.is_active and txn.prepared
    # Nothing installed yet: a fresh snapshot still sees the old value.
    reader = db.begin("ssi")
    assert db.read(reader, "t", "x") == 0
    db.commit(reader)
    db.commit_prepared(txn)
    db.finalize_commit(txn)
    assert txn.is_committed
    reader = db.begin("ssi")
    assert db.read(reader, "t", "x") == 1
    db.commit(reader)


def test_commit_prepared_requires_prepare():
    db = _fresh()
    txn = db.begin("ssi")
    db.write(txn, "t", "x", 1)
    with pytest.raises(TransactionStateError):
        db.commit_prepared(txn)
    db.abort(txn)


@pytest.mark.parametrize("step", ["commit", "prepare_commit"])
def test_plain_commit_of_prepared_txn_is_refused(step):
    """Only the coordinator decides a prepared transaction: a plain
    commit neither re-certifies nor commits it, and it stays prepared
    until commit_prepared."""
    db = _fresh()
    txn = db.begin("ssi")
    db.write(txn, "t", "x", 1)
    db.prepare_for_commit(txn)
    with pytest.raises(TransactionStateError, match="prepared"):
        getattr(db, step)(txn)
    assert txn.is_active and txn.prepared and db._prepared == {txn}
    db.commit_prepared(txn)
    db.finalize_commit(txn)
    assert txn.is_committed and not txn.prepared and not db._prepared


def test_prepared_pivot_wins_with_reference_tracker():
    """t1 prepares as half a dangerous structure; t2's side completing
    the structure must abort *t2* — t1 can no longer abort locally."""
    db = _fresh()
    t1 = db.begin("ssi")
    t2 = db.begin("ssi")
    db.read(t1, "t", "x")
    db.read(t2, "t", "y")
    db.write(t1, "t", "y", 1)  # t2 -rw-> t1
    summary = db.prepare_for_commit(t1)
    assert summary["in"] is True and summary["out"] is False

    with pytest.raises(UnsafeError):
        # Completing t1 -rw-> t2 makes prepared t1 the pivot; whether the
        # engine dooms t2 at mark time or at its commit, t2 is the victim.
        db.write(t2, "t", "x", 2)
        db.commit(t2)
    assert t2.is_aborted
    assert t1.is_active and t1.prepared
    db.commit_prepared(t1)
    db.finalize_commit(t1)
    assert t1.is_committed


def test_prepared_pivot_wins_with_boolean_tracker():
    db = _fresh(precise_conflicts=False)
    t1 = db.begin("ssi")
    t2 = db.begin("ssi")
    db.read(t1, "t", "x")
    db.read(t2, "t", "y")
    db.write(t1, "t", "y", 1)
    db.prepare_for_commit(t1)
    with pytest.raises(UnsafeError):
        db.write(t2, "t", "x", 2)
        db.commit(t2)
    assert t2.is_aborted
    assert t1.is_active and t1.prepared
    db.commit_prepared(t1)
    db.finalize_commit(t1)
    assert t1.is_committed


def test_summary_renders_global_ids():
    db = _fresh()
    t_reader = db.begin("ssi", global_id=101)
    t_writer = db.begin("ssi", global_id=202)
    db.read(t_reader, "t", "x")
    db.write(t_writer, "t", "x", 1)  # t_reader -rw-> t_writer
    assert db.prepare_for_commit(t_writer) == {
        "in": True, "out": False, "in_partner": 101, "out_partner": None,
    }
    assert db.prepare_for_commit(t_reader) == {
        "in": False, "out": True, "in_partner": None, "out_partner": 202,
    }
    for txn in (t_writer, t_reader):
        db.commit_prepared(txn)
        db.finalize_commit(txn)


def test_aborted_partner_does_not_vote_a_flag():
    db = _fresh()
    t_reader = db.begin("ssi", global_id=301)
    t_writer = db.begin("ssi", global_id=302)
    db.read(t_reader, "t", "x")
    db.write(t_writer, "t", "x", 1)  # t_reader -rw-> t_writer
    db.abort(t_reader)
    # The edge died with its victim (the Fig 3.10 restore rule): the
    # PREPARE vote must not report a conflict with an aborted partner.
    summary = db.prepare_for_commit(t_writer)
    assert summary["in"] is False and summary["in_partner"] is None
    db.commit_prepared(t_writer)
    db.finalize_commit(t_writer)


def test_import_flags_fill_only_empty_slots():
    db = _fresh()
    txn = db.begin("ssi")
    db.write(txn, "t", "x", 1)
    db.prepare_for_commit(txn)
    # The coordinator saw flags on *other* shards: imported here so
    # later local edges against this commit see the global structure.
    db.commit_prepared(txn, import_in=True, import_out=True)
    assert txn.in_conflict is txn and txn.out_conflict is txn
    db.finalize_commit(txn)
    assert txn.is_committed
