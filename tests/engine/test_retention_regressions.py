"""Regressions for two SIREAD-lifecycle bugs found in the hardening PR.

Both were seed-level soundness holes in code that predates this PR —
committed interleavings the MVSG oracle rejects:

* **Lost creator lookup.**  A committed *write-only* SSI transaction must
  stay findable (``find_transaction``) while any active snapshot
  predates its commit: the Fig 3.4 read-side check looks up the creator
  of a newer version by id, and popping the writer from the registry at
  finalize silently dropped that reader->writer rw edge.  The fix keeps
  such writers registry-findable (``_retired_writers``) — without
  suspending them, since there are no SIREADs to retain — until the
  cleanup horizon passes their commit.
* **Gap inheritance excluded the inserter.**  Splitting gap ``(a, c)``
  at a new key ``b`` inherits gap sentinels onto ``(a, b)`` and
  ``(b, c)``; the insert path excluded the inserting transaction from
  inheritance, so *its own* earlier scan lost phantom coverage on the
  new sub-gap and a scan-then-insert pair could both commit with
  mutually unseen inserts (write skew on a predicate).
"""

from __future__ import annotations

from repro.engine.config import EngineConfig
from repro.sgt.checker import check_serializable
from repro.sim.interleave import run_interleaving
from repro.sim.ops import Get, Scan, Write

from scripts.gen_cc_equivalence import SCENARIOS

from tests.conftest import fill

FACTORIES = dict(SCENARIOS)


class TestRetiredWriterFindability:
    def test_write_only_commit_stays_findable_until_horizon(self, db):
        """The writer is findable (not suspended) while an older snapshot
        is active, and retired by the first cleanup after it finishes."""
        fill(db, "t", {1: "a", 2: "b"})
        reader = db.begin("ssi")
        reader.read("t", 1)  # pins the cleanup horizon
        writer = db.begin("ssi")
        writer.write("t", 2, "w")
        writer.commit()
        assert db.find_transaction(writer.id) is writer
        assert writer not in db._suspended
        reader.commit()
        db.cleanup_suspended()
        assert db.find_transaction(writer.id) is None

    def test_interleaving_that_needed_the_creator_lookup(self):
        """Seeded interleaving (seed 15938 of the random-interleaving
        property) that committed a non-serializable history when the
        write-only creator was popped early: the reader of the old
        version could no longer report its rw edge, hiding the pivot."""

        def setup(db):
            db.create_table("t")
            db.load("t", ((i, f"init{i}") for i in range(7)))

        def t0():
            yield Get("t", 1)
            yield Get("t", 0)
            yield Write("t", 1, "T0.2")

        def t1():
            yield Get("t", 0)
            yield Get("t", 0)
            yield Get("t", 0)
            yield Get("t", 0)
            yield Scan("t", 0, 3)

        def t2():
            yield Write("t", 0, "T2.0")

        outcome = run_interleaving(
            setup,
            [t0, t1, t2],
            [2, 0, 2, 0, 1, 1, 0, 1, 1, 1, 1, 0],
            isolation="ssi",
            engine_config=EngineConfig(
                record_history=True, precise_conflicts=False
            ),
        )
        assert check_serializable(outcome.db.history).serializable
        assert outcome.statuses == {0: "unsafe", 1: "committed", 2: "committed"}


class TestGapInheritanceKeepsInserterCovered:
    def test_scan_insert_pair_cannot_both_commit(self):
        """phantom_pair order [1,0,1,1,0,0]: T1 scans, T0 scans, T1
        inserts 6 and commits, T0 inserts 5 and commits.  With the
        inserter excluded from its own gap inheritance both committed;
        one must die."""
        for level in ("ssi", "sgt"):
            setup, programs, _counts = FACTORIES["phantom_pair"]()
            outcome = run_interleaving(
                setup,
                programs,
                [1, 0, 1, 1, 0, 0],
                isolation=level,
                engine_config=EngineConfig(record_history=True),
            )
            assert check_serializable(outcome.db.history).serializable, level
            assert outcome.statuses == {0: "unsafe", 1: "committed"}, level
