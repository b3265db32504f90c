"""SGT-certifier isolation level tests (paper Section 2.7 baseline)."""

import pytest

from repro import Database, EngineConfig, UnsafeError
from repro.errors import TransactionAbortedError
from repro.shard.backend import LocalShard

from tests.conftest import commit_outcomes, fill


class TestSgtLevel:
    def test_write_skew_prevented(self, db):
        fill(db, "acct", {"x": 50, "y": 50})
        t1 = db.begin("sgt")
        t2 = db.begin("sgt")
        results = []
        for txn, key in ((t1, "x"), (t2, "y")):
            try:
                total = txn.read("acct", "x") + txn.read("acct", "y")
                txn.write("acct", key, total - 150)
            except TransactionAbortedError as error:
                results.append(error.reason)
        results.extend(commit_outcomes(t1, t2))
        assert "unsafe" in results
        assert results.count("commit") == 1

    def test_no_false_positive_on_fig_3_8(self, db):
        """SGT tests real cycles, so the Fig 3.8 interleaving commits."""
        fill(db, "t", {"x": 0, "y": 0, "z": 0})
        pivot = db.begin("sgt")
        t_in = db.begin("sgt")
        out = db.begin("sgt")
        pivot.read("t", "y")
        t_in.read("t", "x")
        t_in.read("t", "z")
        t_in.commit()
        out.write("t", "y", 1)
        out.write("t", "z", 1)
        out.commit()
        pivot.write("t", "x", 1)
        pivot.commit()  # serializable as {Tin, Tpivot, Tout}: no cycle

    def test_reads_do_not_block(self, db):
        fill(db, "t", {1: "a"})
        writer = db.begin("sgt")
        writer.write("t", 1, "b")
        reader = db.begin("sgt")
        assert reader.read("t", 1) == "a"  # multiversion read, no block
        reader.commit()
        writer.commit()

    def test_three_txn_cycle_caught(self, db):
        """Tin r(x) r(z); Tpivot r(y) w(x); Tout w(y) w(z) — the Section
        4.7 test set; any real cycle must abort someone."""
        fill(db, "t", {"x": 0, "y": 0, "z": 0})
        pivot = db.begin("sgt")
        out = db.begin("sgt")
        t_in = db.begin("sgt")
        results = []
        try:
            pivot.read("t", "y")
            out.write("t", "y", 1)
            out.write("t", "z", 1)
            out.commit()
            t_in.read("t", "x")
            t_in.read("t", "z")  # sees old z: rw Tin->Tout... but Tout committed
            pivot.write("t", "x", 1)
            results.extend(commit_outcomes(t_in, pivot))
        except TransactionAbortedError as error:
            results.append(error.reason)
        # Whatever interleaving survived must be serializable.
        from repro.sgt.checker import check_serializable
        assert check_serializable(db.history).serializable

    def test_certifier_nodes_cleaned_up(self, db):
        fill(db, "t", {1: 0})
        for _round in range(20):
            txn = db.begin("sgt")
            txn.write("t", 1, txn.read("t", 1) + 1)
            txn.commit()
        # Sequential transactions: the graph must not accumulate.
        assert db.certifier.node_count() <= 2


class TestRetiredEndpoint:
    def test_late_edge_to_a_retired_reader_leaves_no_ghost_node(self, db):
        """A writer can meet a reader's lock just before the reader's
        cleanup and dispatch the rw edge just after it (the threaded
        drain failure).  The late edge must not re-register the retired
        reader: a ghost node with an outgoing edge would pin the writer
        in the suspended set for good."""
        fill(db, "t", {1: "a", 2: "b"})
        reader = db.begin("sgt")
        db.read(reader, "t", 1)
        reader.commit()
        db.cleanup_suspended()
        assert db.find_transaction(reader.id) is None
        writer = db.begin("sgt")
        db.read(writer, "t", 2)
        db.write(writer, "t", 2, "c")
        db.dispatch_rw_edge(reader=reader, writer=writer)
        assert reader.id not in db.certifier._nodes
        writer.commit()
        for _ in range(3):
            db.cleanup_suspended()
        assert db.suspended_count() == 0
        assert not db.certifier._nodes


class TestCleanupChain:
    def test_one_audit_retires_a_chain_committed_head_last(self):
        """A -rw-> B -rw-> C, committed C, B, A: each node's incoming
        edge is gone only once the node before it retires, later in the
        same sweep.  One audit must still leave nothing suspended."""
        shard = LocalShard()
        shard.create_table("t")
        shard.load("t", [("x", 0), ("y", 0)])
        for gtid in (1, 2, 3):
            shard.begin(gtid, "sgt")
        shard.call(1, "read", "t", "x")
        shard.call(2, "read", "t", "y")
        shard.call(2, "put", "t", "x", 1)
        shard.call(3, "put", "t", "y", 1)
        for gtid in (3, 2, 1):
            shard.commit(gtid)
        audit = shard.audit()
        assert audit == dict.fromkeys(audit, 0)
