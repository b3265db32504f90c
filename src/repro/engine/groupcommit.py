"""The commit entry: lone leaders commit serially, overlap commits in groups.

Per-commit cost in this engine has three tiers — the Fig 3.4 dangerous-
structure check under the tracker latch, version installation under the
commit latch, and (with a write-ahead log attached) a flush per commit.
PostgreSQL's production SSI pays the same three and amortizes them with
group commit (Ports & Grittner, VLDB'12); this module is that layer, and
every ``Database.commit`` goes through it.

A committer calls :meth:`CommitBatcher.enter`.  With no leader active it
*becomes* the leader and gets ``None`` back: it commits its own
transaction through the serial body (``prepare_commit`` →
``finalize_commit`` — no ticket, no completion, no counter) and then
runs :meth:`CommitBatcher.lead`.  A lone committer therefore pays two
uncontended acquisitions of the batcher's mutex and nothing else.
Whoever arrives while a leader is active gets a queued *ticket* instead,
and ``Database.commit`` raises
:class:`~repro.errors.CompletionWaitRequired` on it: the executor waits
its own way (a thread parks, a session suspends) and re-invokes the
commit, which consumes the verdict.  ``lead`` drains the queue in groups
of at most :data:`MAX_BATCH` — a group is whatever arrived during the
previous pass, nobody waits for one to fill — and runs each group in
one pass:

1. **Decide, per member in arrival order** — the lone path's own
   decision step, ``Database._decide``: certify and install under the
   tracker latch, or abort.  Member k is certified against a world in
   which members 0..k-1 have already committed, exactly as if they had
   committed one at a time in that order — so a group admits precisely
   the histories the lone path does, and a dangerous structure
   completed inside the group aborts the *later* arrival.
2. **Group WAL flush** — redo records for every committed member are
   appended outside all latches, in commit order, then one
   ``flush()`` covers the group.  Locks are still held (finalize runs
   after the flush), preserving the paper's flush-before-release
   ordering for every member, and recovery can never see a torn group:
   either the single flush happened (all members durable) or it did
   not (none are).
3. **Finalize** — the leader finalizes every committed member (release
   locks, suspend retained records) and only then resolves the
   tickets, so a resumed waiter observes its transaction fully retired.

Only the leader fires a ticket's completion, so a fired completion *is*
the verdict.

Leader election is gap-free: the leader flag is only cleared under the
batcher mutex when the queue is empty, so every queued ticket always has
an active leader responsible for it.
"""

from __future__ import annotations

import threading

from repro.engine.waits import Completion
from repro.errors import TransactionStateError

__all__ = ["CommitBatcher", "MAX_BATCH"]

#: largest group one leader pass certifies, installs and flushes.
MAX_BATCH = 16


class _Ticket:
    """One queued commit: the transaction, the completion its executor
    waits on (fired by the leader alone, after the member is finalized
    or aborted), and the group's verdict (``error`` set when the member
    was aborted)."""

    __slots__ = ("txn", "done", "error")

    def __init__(self, txn, locks) -> None:
        self.txn = txn
        self.done = Completion(txn, locks)
        self.error: BaseException | None = None


class CommitBatcher:
    """Elects one committer at a time as leader and queues the rest
    behind it.  Owned by a :class:`~repro.engine.database.Database`;
    drive it only through ``Database.commit``.
    """

    def __init__(self, db) -> None:
        self.db = db
        # Not an engine latch: never held across an engine call (entry,
        # the queue drain and the batch run are disjoint critical
        # sections), and nothing waits on it.
        self._mutex = threading.Lock()
        self._queue: list[_Ticket] = []
        self._leader_active = False
        self.stats = db.metrics.group("group_commit", {
            "batches": 0,
            "batched_txns": 0,
            "batch_aborts": 0,
        })
        self._h_batch_size = db.metrics.histogram(
            "group_commit_batch_size", edges=(1, 2, 4, 8, 16, 32, 64)
        )

    def enter(self, txn) -> _Ticket | None:
        """Returns None when the caller is now the leader — it commits
        ``txn`` itself and must then run :meth:`lead` (with no latches
        held), whatever that commit raised.  Otherwise ``txn`` is queued
        behind the active leader and its executor waits on the returned
        ticket's ``done``."""
        with self._mutex:
            if not self._leader_active:
                self._leader_active = True
                return None
            ticket = _Ticket(txn, self.db.locks)
            self._queue.append(ticket)
            return ticket

    def lead(self) -> None:
        """Run whatever queued behind the leader, a group at a time,
        and step down — under the mutex, so no ticket can be stranded
        leaderless — only once nothing is queued."""
        while True:
            with self._mutex:
                queue = self._queue
                if not queue:
                    self._leader_active = False
                    return
                batch = queue[:MAX_BATCH]
                del queue[:MAX_BATCH]
            self._run_batch(batch)

    def _run_batch(self, tickets: list[_Ticket]) -> None:
        """One leader pass over a group (see the module docstring)."""
        db = self.db
        committed: list = []
        aborted = 0
        for ticket in tickets:
            txn = ticket.txn
            if not txn.is_active:
                ticket.error = TransactionStateError(
                    f"transaction {txn.id} is {txn.status.value}"
                )
                continue
            ticket.error = db._decide(txn)
            if ticket.error is None:
                committed.append(txn)
            else:
                aborted += 1

        # One group flush, with no latch held and every member's locks
        # still held (flush-before-release ordering, per member).
        if committed:
            db._publish_commits(committed)
        for txn in committed:
            # The leader finalizes followers too: locks must release
            # only after the group flush, and a resumed waiter must find
            # its transaction fully retired.
            db.finalize_commit(txn)

        self.stats.inc("batches")
        self.stats.inc("batched_txns", len(tickets))
        if aborted:
            self.stats.inc("batch_aborts", aborted)
        self._h_batch_size.observe(len(tickets))

        # Resolve last: after this, waiters may observe and reuse
        # anything about the transaction.
        for ticket in tickets:
            ticket.done.set()
