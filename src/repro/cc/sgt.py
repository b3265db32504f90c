"""The serialization-graph-testing baseline (Section 2.7).

Owns the :class:`~repro.sgt.scheduler.SGTCertifier` and feeds it every
dependency the kernel surfaces: wr edges from reads, ww edges from
version supersession, rw edges from the SIREAD detection machinery.  No
concurrency filter applies — even a non-concurrent edge can lie on a
cycle — and committed nodes are retained until their incoming edges
drain, the cost the paper holds against SGT schedulers.

With the highest :attr:`~repro.cc.policy.CCPolicy.edge_precedence`, any
rw edge touching an SGT transaction lands in the full graph even when the
other end runs SSI or SI.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cc.policy import CCPolicy
from repro.engine.isolation import IsolationLevel
from repro.errors import UnsafeError
from repro.locking.modes import LockMode
from repro.sgt.scheduler import SGTCertifier

if TYPE_CHECKING:
    from repro.engine.database import Database
    from repro.engine.transaction import Transaction


class SGTPolicy(CCPolicy):
    """Online serialization-graph certification."""

    level = IsolationLevel.SGT
    edge_precedence = 10

    def install(self, db: "Database") -> None:
        self.certifier = SGTCertifier()
        # Published for tests/benchmarks that inspect the graph, and
        # adopted by the unified metrics registry.
        db.certifier = self.certifier
        db.metrics.register_group("sgt", self.certifier.stats)

    # ------------------------------------------------------------ lifecycle

    def on_begin(self, txn: "Transaction") -> None:
        self.certifier.register(txn.id)

    def on_transaction_retired(self, txn: "Transaction") -> None:
        # Any level's transaction may have been drawn into the graph by a
        # mixed-level edge; drop its node once it leaves the system.
        self.certifier.remove(txn.id)

    # ------------------------------------------------------------ read path

    def read_lock_mode(self, txn: "Transaction") -> Optional[LockMode]:
        return LockMode.SIREAD

    def on_read(
        self, txn: "Transaction", table_name: str, key, chain, version
    ) -> None:
        # Newer ignored versions are rw edges, exactly as for SSI.
        read_ts = txn.snapshot.read_ts
        if chain.has_newer(read_ts):
            for newer in chain.newer_than(read_ts):
                creator = self.db.find_transaction(newer.creator_id)
                if creator is not None:
                    self.db.dispatch_rw_edge(reader=txn, writer=creator)
        # wr edge to the creator of the version actually read.
        if (
            version is not None
            and not version.is_tombstone
            and version.commit_ts > 0
        ):
            creator = self.db.find_transaction(version.creator_id)
            if creator is not None:
                self.certify_edge(creator, txn)

    # ----------------------------------------------------------- write path

    def on_write(self, txn: "Transaction", table_name: str, key) -> None:
        # ww edge from the creator of the version this write supersedes
        # (rw/wr edges come from locks and reads).
        chain = self.db.table(table_name).chain(key)
        latest = chain.latest() if chain is not None else None
        if latest is not None:
            creator = self.db.find_transaction(latest.creator_id)
            if creator is not None:
                self.certify_edge(creator, txn)

    def on_write_conflict(
        self, writer: "Transaction", reader: "Transaction"
    ) -> None:
        # The certifier tracks the full graph: even a non-concurrent rw
        # edge (reader committed before writer began) can lie on a cycle,
        # so no concurrency filter applies (Section 2.7).
        self.db.dispatch_rw_edge(reader=reader, writer=writer)

    # ------------------------------------------------------------- rw edges

    def handles_rw_edge(
        self, reader: "Transaction", writer: "Transaction"
    ) -> bool:
        return True

    def on_rw_edge(self, reader: "Transaction", writer: "Transaction") -> None:
        self.certify_edge(reader, writer)

    def certify_edge(self, src: "Transaction", dst: "Transaction") -> None:
        """Install the edge; abort an active participant if it closes a
        real cycle."""
        cycle = self.certifier.add_dependency(src.id, dst.id)
        if cycle:
            victim = src if src.is_active else dst
            self.db.doom(
                victim, UnsafeError("SGT cycle detected", txn_id=victim.id)
            )

    # --------------------------------------------------------------- commit

    def before_commit(self, txn: "Transaction") -> Optional[UnsafeError]:
        """Commit unless a cycle doomed this transaction.  Overriding the
        hook makes SGT a certifying policy, so the kernel takes this
        decision and the status flip in one tracker-latched section: a
        cycle closed meanwhile dooms a transaction that is still active,
        never one that has just committed."""
        return txn.doom_error

    def retain_read_locks(self, txn: "Transaction") -> bool:
        return self.db.locks.holds_any_siread(txn) or bool(txn.out_conflict)

    def retain_record(self, txn: "Transaction", keep_siread: bool) -> bool:
        # Every committed node stays findable while the graph may still
        # grow edges through it.
        return True

    def may_cleanup(self, txn: "Transaction") -> bool:
        # SGT nodes additionally wait out their incoming edges: future
        # wr/ww edges out of this node could otherwise complete a cycle we
        # already hold half of.
        return not self.certifier.has_incoming(txn.id)
