"""Serializable SI engine tests (paper Chapter 3).

These drive the anomaly scenarios of the paper through the real engine
and assert that exactly the paper's outcomes occur: unsafe aborts where
SI would corrupt data, commits where the execution is serializable.
"""

import pytest

from repro import Database, EngineConfig, IsolationLevel, UnsafeError
from repro.errors import TransactionAbortedError
from repro.sgt.checker import check_serializable

from tests.conftest import commit_outcomes, fill


def outcomes_contain_unsafe(outcomes):
    return any(outcome == "unsafe" for outcome in outcomes)


class TestWriteSkewPrevention:
    def test_classic_write_skew_aborts_one(self, db):
        """Example 2 under Serializable SI: one transaction must die."""
        fill(db, "acct", {"x": 50, "y": 50})
        t1 = db.begin("ssi")
        t2 = db.begin("ssi")
        results = []
        try:
            b1 = t1.read("acct", "x") + t1.read("acct", "y")
            t1.write("acct", "x", b1 - 70 - 50)
        except TransactionAbortedError as error:
            results.append(error.reason)
        try:
            b2 = t2.read("acct", "x") + t2.read("acct", "y")
            t2.write("acct", "y", b2 - 80 - 50)
        except TransactionAbortedError as error:
            results.append(error.reason)
        results.extend(commit_outcomes(t1, t2))
        assert "unsafe" in results
        assert results.count("commit") <= 1
        # Data integrity survives: x + y stays >= -100+... the committed
        # one alone cannot break x + y > 0 given it checked its snapshot.
        assert check_serializable(db.history).serializable

    def test_write_skew_with_basic_tracker(self, db_basic):
        fill(db_basic, "acct", {"x": 50, "y": 50})
        t1 = db_basic.begin("ssi")
        t2 = db_basic.begin("ssi")
        results = []
        for txn, key in ((t1, "x"), (t2, "y")):
            try:
                total = txn.read("acct", "x") + txn.read("acct", "y")
                txn.write("acct", key, total - 150)
            except TransactionAbortedError as error:
                results.append(error.reason)
        results.extend(commit_outcomes(t1, t2))
        assert "unsafe" in results

    def test_sequential_execution_never_aborts(self, db):
        fill(db, "acct", {"x": 50, "y": 50})
        for key in ("x", "y"):
            txn = db.begin("ssi")
            total = txn.read("acct", "x") + txn.read("acct", "y")
            txn.write("acct", key, total - 70)
            txn.commit()  # serial: no anomaly possible
        assert db.stats["aborts"]["unsafe"] == 0

    def test_doctors_on_duty_example(self, db):
        """Example 1: the on-duty invariant is preserved under SSI."""
        fill(db, "duties", {("s1", "d1"): "on duty", ("s1", "d2"): "on duty"})

        def take_reserve(txn, doctor):
            txn.write("duties", ("s1", doctor), "reserve")
            on_duty = [
                key for key, status in txn.scan("duties")
                if status == "on duty"
            ]
            if not on_duty:
                txn.abort()
                return "rolled-back"
            txn.commit()
            return "commit"

        t1 = db.begin("ssi")
        t2 = db.begin("ssi")
        results = []
        for txn, doctor in ((t1, "d1"), (t2, "d2")):
            try:
                results.append(take_reserve(txn, doctor))
            except TransactionAbortedError as error:
                results.append(error.reason)
        committed = results.count("commit")
        # At most one may commit; the invariant must hold afterwards.
        check = db.begin("ssi")
        on_duty = [k for k, s in check.scan("duties") if s == "on duty"]
        assert len(on_duty) >= 1
        assert committed <= 1


class TestReadOnlyAnomaly:
    def _run(self, db, reader_level):
        """Example 3 (Fekete et al. 2004): Tpivot r(y) w(x); Tout w(y)w(z);
        Tin r(x) r(z), interleaved as in Fig 2.3(a)."""
        fill(db, "t", {"x": 0, "y": 0, "z": 0})
        pivot = db.begin("ssi")
        out = db.begin("ssi")
        pivot.read("t", "y")
        out.write("t", "y", 10)
        out.write("t", "z", 10)
        out.commit()
        t_in = db.begin(reader_level)
        results = []
        try:
            t_in.read("t", "x")
            t_in.read("t", "z")
        except TransactionAbortedError as error:
            results.append(error.reason)
        try:
            pivot.write("t", "x", 5)
        except TransactionAbortedError as error:
            results.append(error.reason)
        results.extend(commit_outcomes(t_in, pivot))
        return results

    def test_read_only_anomaly_prevented_when_all_ssi(self, db):
        results = self._run(db, "ssi")
        assert "unsafe" in results

    def test_read_only_anomaly_possible_with_si_queries(self, db):
        """Section 3.8: SI queries mixed with SSI updates — updates stay
        consistent but the query may observe a non-serializable state."""
        results = self._run(db, "si")
        assert "unsafe" not in results
        assert results.count("commit") == 2


class TestPivotCommitOrderPrecision:
    def test_fig_3_8_false_positive_only_with_basic_tracker(self):
        """The Fig 3.8 interleaving is serializable ({Tin, Tpivot, Tout});
        the basic tracker aborts the pivot anyway, the enhanced one does
        not."""
        outcomes = {}
        for precise in (False, True):
            db = Database(EngineConfig(precise_conflicts=precise))
            fill(db, "t", {"x": 0, "y": 0, "z": 0})
            pivot = db.begin("ssi")
            t_in = db.begin("ssi")
            out = db.begin("ssi")
            pivot.read("t", "y")               # rpivot(y): snapshot fixed
            t_in.read("t", "x")
            t_in.read("t", "z")
            t_in.commit()                      # cin first
            out.write("t", "y", 1)
            out.write("t", "z", 1)
            out.commit()                       # cout after cin
            results = []
            try:
                pivot.write("t", "x", 1)       # wpivot(x) after cin
            except TransactionAbortedError as error:
                results.append(error.reason)
            results.extend(commit_outcomes(pivot))
            outcomes[precise] = results
        # Basic tracker: pivot has both flags -> false-positive abort.
        assert "unsafe" in outcomes[False]
        # Enhanced tracker: Tin committed before Tout, so Tout is not the
        # first committer -> the pivot commits (Fig 3.8's point).
        assert outcomes[True] == ["commit"]


class TestPhantoms:
    def test_phantom_write_skew_prevented(self, db):
        """The Section 3.5 scenario: predicate-read vs insert write skew
        must abort under SSI (the scan's key-range SIREAD detects it)."""
        db.create_table("oncall")
        fill(db, "oncall", {("s1", 1): "alice"})
        t1 = db.begin("ssi")
        t2 = db.begin("ssi")
        results = []
        try:
            count1 = len(t1.scan("oncall"))
            t1.insert("oncall", ("s1", 2), f"bob-{count1}")
        except TransactionAbortedError as error:
            results.append(error.reason)
        try:
            count2 = len(t2.scan("oncall"))
            t2.insert("oncall", ("s1", 3), f"carol-{count2}")
        except TransactionAbortedError as error:
            results.append(error.reason)
        results.extend(commit_outcomes(t1, t2))
        assert "unsafe" in results

    def test_delete_vs_scan_skew_prevented(self, db):
        fill(db, "items", {1: "a", 2: "b"})
        t1 = db.begin("ssi")
        t2 = db.begin("ssi")
        results = []
        try:
            if len(t1.scan("items")) > 1:
                t1.delete("items", 1)
        except TransactionAbortedError as error:
            results.append(error.reason)
        try:
            if len(t2.scan("items")) > 1:
                t2.delete("items", 2)
        except TransactionAbortedError as error:
            results.append(error.reason)
        results.extend(commit_outcomes(t1, t2))
        assert "unsafe" in results

    def test_insert_past_scan_end_detected(self, db):
        """Insert beyond the last existing key still conflicts: the
        scan's range reaches its bound, not just its last row."""
        fill(db, "t", {1: "a"})
        scanner = db.begin("ssi")
        inserter = db.begin("ssi")
        scanner.scan("t", 1, 100)
        inserter.insert("t", 50, "phantom")
        scanner.write("t", 1, "A")  # gives scanner an outgoing edge target
        results = commit_outcomes(inserter, scanner)
        # Not necessarily unsafe (no full dangerous structure), but the
        # conflict must have been recorded between the two.
        tracked = db.tracker.stats["marked"]
        assert tracked >= 1

    def test_non_overlapping_ranges_do_not_conflict(self, db):
        fill(db, "t", {1: "a", 10: "b", 20: "c"})
        scanner = db.begin("ssi")
        inserter = db.begin("ssi")
        scanner.scan("t", 1, 5)
        before = db.tracker.stats["marked"]
        inserter.insert("t", 15, "x")  # outside scanned range
        assert db.tracker.stats["marked"] == before
        inserter.commit()
        scanner.commit()


class TestSuspension:
    def test_committed_reader_suspended_until_no_overlap(self, db):
        fill(db, "t", {"x": 0, "y": 0})
        reader = db.begin("ssi")
        reader.read("t", "x")
        overlapping = db.begin("ssi")
        overlapping.read("t", "y")
        reader.commit()
        assert db.suspended_count() == 1  # SIREAD locks retained
        overlapping.commit()
        # Cleanup runs eagerly on commit: nothing overlaps anymore.
        assert db.suspended_count() == 0

    def test_conflict_detected_against_suspended_transaction(self, db):
        """Fig 2.3(b): the pivot's read-write conflict with Tout appears
        only after the pivot committed — the retained SIREAD catches it."""
        fill(db, "t", {"x": 0, "y": 0, "z": 0})
        t_in = db.begin("ssi")
        pivot = db.begin("ssi")
        out = db.begin("ssi")
        t_in.read("t", "x")      # ensures overlap so pivot is retained
        pivot.read("t", "y")
        pivot.write("t", "x", 1)
        pivot.commit()           # holds SIREAD on y, suspended
        results = []
        try:
            out.write("t", "y", 2)   # hits the suspended SIREAD
            out.write("t", "z", 2)
        except TransactionAbortedError as error:
            results.append(error.reason)
        try:
            t_in.read("t", "z")
        except TransactionAbortedError as error:
            results.append(error.reason)
        results.extend(commit_outcomes(out, t_in))
        assert check_serializable(db.history).serializable

    def test_pure_update_not_suspended(self, db):
        """A transaction with no SIREAD locks (thanks to the upgrade
        optimisation) and no out-conflict is cleaned immediately."""
        fill(db, "t", {"x": 0})
        other = db.begin("ssi")
        other.read("t", "x")  # keeps an overlapping txn active
        writer = db.begin("ssi")
        writer.write("t", "x", 1)
        writer.commit()
        assert all(txn.id != writer.id for txn in db._suspended)
        other.abort()

    def test_lock_table_shrinks_after_cleanup(self, db):
        fill(db, "t", {i: i for i in range(20)})
        for _round in range(10):
            txn = db.begin("ssi")
            for key in range(20):
                txn.read("t", key)
            txn.write("t", 0, txn.read("t", 0) + 1)
            txn.commit()
        # No concurrency: every commit cleans the previous record.
        assert db.suspended_count() <= 1
        assert db.locks.table_size() <= 25


class TestVictimPolicies:
    def _skew(self, config):
        db = Database(config)
        fill(db, "acct", {"x": 50, "y": 50})
        t1 = db.begin("ssi")
        t2 = db.begin("ssi")
        results = {}
        for txn, key in ((t1, "x"), (t2, "y")):
            try:
                total = txn.read("acct", "x") + txn.read("acct", "y")
                txn.write("acct", key, total - 150)
            except TransactionAbortedError as error:
                results[txn.id] = error.reason
        for txn in (t1, t2):
            if txn.is_active:
                try:
                    txn.commit()
                    results[txn.id] = "commit"
                except TransactionAbortedError as error:
                    results[txn.id] = error.reason
        return t1, t2, results

    def test_youngest_policy_aborts_younger(self):
        t1, t2, results = self._skew(
            EngineConfig(victim_policy="youngest", precise_conflicts=False)
        )
        assert results[t2.id] == "unsafe"
        assert results[t1.id] == "commit"

    def test_oldest_policy_aborts_older(self):
        t1, t2, results = self._skew(
            EngineConfig(victim_policy="oldest", precise_conflicts=False)
        )
        assert results[t1.id] == "unsafe"
        assert results[t2.id] == "commit"
