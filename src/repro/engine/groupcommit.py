"""Group commit: batched certification and group WAL flush (PR 9).

Per-commit cost in this engine has three tiers — the Fig 3.4 dangerous-
structure check under the tracker latch, version installation under the
commit latch, and (with a write-ahead log attached) a flush per commit.
PostgreSQL's production SSI pays the same three and amortizes them with
group commit (Ports & Grittner, VLDB'12); this module is that layer.

A committer calls :meth:`CommitBatcher.submit`, which enqueues a
*ticket* and elects the first enqueuer with no active leader as the
batch **leader**.  The leader holds a short collect window open
(``group_commit_wait_us``) so concurrently-arriving committers can join,
then runs the whole group in one pass:

1. **Group certification** — tracker and commit latches are taken once
   for the batch.  Members are certified *in arrival order*, which is
   also the deterministic intra-batch victim rule: member k is checked
   against a world in which members 0..k-1 have already committed,
   exactly as if the serial certifier had been fed the same arrival
   order — so group certification admits precisely the histories the
   one-at-a-time path does, and a dangerous structure completed inside
   the batch aborts the *later* arrival.  Failed members take the abort
   decision (tracker phase) inline; their lock release happens after
   the latches drop.
2. **Group WAL flush** — redo records for every committed member are
   appended outside all latches, in commit order, then one
   ``flush()`` covers the batch.  Locks are still held (finalize runs
   after the flush), preserving the paper's flush-before-release
   ordering for every member, and recovery can never see a torn group:
   either the single flush happened (all members durable) or it did
   not (none are).
3. **Finalize** — the leader finalizes every member (release locks,
   suspend retained records) and only then resolves the tickets, so a
   resumed waiter observes its transaction fully retired.

Followers never block a latch holder: they wait on the ticket's
:class:`~repro.engine.waits.Completion` (threads park on ``wait()``;
sessions suspend via :class:`~repro.errors.GroupCommitWaitRequired` and
ride the group without occupying a scheduler worker).

Leader election is submit-time and gap-free: the leader flag is only
cleared under the batcher mutex when the queue is empty, so every
queued ticket always has an active leader responsible for it.
"""

from __future__ import annotations

import threading
import time

from repro.engine.config import LockGranularity
from repro.engine.waits import Completion
from repro.errors import TransactionStateError

__all__ = ["CommitBatcher"]


class _Ticket:
    """One queued commit: the transaction, the completion its waiter
    parks on, and the batch outcome (``error`` set when group
    certification aborted this member).  ``resolved`` distinguishes the
    leader's verdict from a spurious completion fire (``interrupt()``
    wakes suspended sessions through the same completion)."""

    __slots__ = ("txn", "done", "error", "abort_bucket", "resolved")

    def __init__(self, txn) -> None:
        self.txn = txn
        self.done = Completion()
        self.error: BaseException | None = None
        self.abort_bucket: str | None = None
        self.resolved = False


class CommitBatcher:
    """Collects concurrently-arriving committers into leader-run groups.

    Owned by a :class:`~repro.engine.database.Database` when
    ``EngineConfig.group_commit`` is set; drive it only through
    ``Database.commit``.
    """

    def __init__(self, db, max_batch: int, wait_us: int) -> None:
        if max_batch < 1:
            raise ValueError("group_commit_max must be >= 1")
        self.db = db
        self.max_batch = max_batch
        self.wait_s = max(0, wait_us) / 1_000_000.0
        # The batcher's own mutex/condition is *not* an engine latch: it
        # is never held across engine calls (the queue drain and the
        # batch run are disjoint critical sections).
        self._cv = threading.Condition()
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

    # ----------------------------------------------------------- enqueue

    def submit(self, txn) -> tuple[_Ticket, bool]:
        """Queue ``txn`` for the next group.  Returns ``(ticket,
        is_leader)``; a True leader flag obliges the caller to run
        :meth:`lead` (with no latches held) before waiting."""
        ticket = _Ticket(txn)
        with self._cv:
            self._queue.append(ticket)
            self._cv.notify()
            if self._leader_active:
                return ticket, False
            self._leader_active = True
            return ticket, True

    # ------------------------------------------------------------- leader

    def lead(self) -> None:
        """Run batches until the queue drains.  The collect window stays
        open up to ``group_commit_wait_us`` or until ``max_batch``
        committers have queued, whichever comes first; the leader only
        steps down (under the mutex) when nothing is queued, so no
        ticket can be stranded leaderless."""
        while True:
            deadline = time.monotonic() + self.wait_s
            with self._cv:
                if self.wait_s > 0:
                    while len(self._queue) < self.max_batch:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._cv.wait(remaining)
                batch = self._queue[: self.max_batch]
                del self._queue[: self.max_batch]
            if batch:
                self._run_batch(batch)
            with self._cv:
                if not self._queue:
                    self._leader_active = False
                    return

    def _run_batch(self, tickets: list[_Ticket]) -> None:
        """One leader pass over a group (see the module docstring)."""
        db = self.db
        page_mode = db.config.granularity is LockGranularity.PAGE
        committed: list = []
        aborted: list[_Ticket] = []

        # One latched section per batch: both latches are taken once, in
        # hierarchy order; _install_commit and _abort_tracker_phase
        # re-enter them (engine latches are re-entrant).
        with db._tracker_latch, db._commit_latch:
            for ticket in tickets:
                txn = ticket.txn
                if not txn.is_active:
                    ticket.error = TransactionStateError(
                        f"transaction {txn.id} is {txn.status.value}"
                    )
                    continue
                error = txn.doom_error
                if error is None and txn.policy.certifies:
                    error = db._certify(txn)
                if error is None:
                    db._install_commit(txn, page_mode)
                    committed.append(txn)
                else:
                    # The abort decision (tracker phase) happens inside
                    # the batch's latched section so later members certify
                    # against it; lock release and WAL I/O wait below.
                    ticket.error = error
                    ticket.abort_bucket = db._abort_tracker_phase(
                        txn, error.reason
                    )
                    aborted.append(ticket)

        # One group flush, with no latch held and every member's locks
        # still held (flush-before-release ordering, per member).
        if committed:
            db._publish_commits(committed)
        for txn in committed:
            # The leader finalizes followers too: locks must release
            # only after the group flush, and a resumed waiter must find
            # its transaction fully retired.
            db.finalize_commit(txn)
        for ticket in aborted:
            if ticket.abort_bucket is not None:
                db._abort_release_phase(ticket.txn, ticket.abort_bucket)

        self.stats.inc("batches")
        self.stats.inc("batched_txns", len(tickets))
        if aborted:
            self.stats.inc("batch_aborts", len(aborted))
        self._h_batch_size.observe(len(tickets))

        # Resolve last: after this, waiters may observe and reuse
        # anything about the transaction.
        for ticket in tickets:
            ticket.resolved = True
            ticket.done.set()
