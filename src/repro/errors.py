"""Exception hierarchy for the repro transactional engine.

The error classes mirror the error returns that the paper's prototypes
added to Berkeley DB and InnoDB (Section 4.3 item 1 and Section 4.6):

* ``DB_SNAPSHOT_CONFLICT`` / ``DB_UPDATE_CONFLICT`` -> :class:`UpdateConflictError`
* ``DB_SNAPSHOT_UNSAFE`` / ``DB_UNSAFE_TRANSACTION`` -> :class:`UnsafeError`
* deadlock victim -> :class:`DeadlockError`

All abort-causing errors derive from :class:`TransactionAbortedError` so a
retry loop can catch one class; each carries ``reason`` — the machine
readable abort classification used by the benchmark harness when grouping
errors into the paper's "conflict" / "unsafe" / "deadlock" bars.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class TransactionError(ReproError):
    """Base class for errors related to transaction processing."""


class TransactionAbortedError(TransactionError):
    """The transaction was (or must be) rolled back.

    Attributes:
        reason: short machine-readable classification; one of the values in
            :data:`ABORT_REASONS`.
    """

    reason = "aborted"

    def __init__(self, message: str = "", *, txn_id: int | None = None):
        super().__init__(message or self.__class__.__doc__)
        self.txn_id = txn_id


class UpdateConflictError(TransactionAbortedError):
    """First-committer-wins violation: a concurrent transaction committed a
    newer version of an item this transaction wrote (``DB_UPDATE_CONFLICT``).
    """

    reason = "conflict"


class UnsafeError(TransactionAbortedError):
    """Serializable SI detected a potentially non-serializable execution —
    two consecutive rw-antidependencies (``DB_SNAPSHOT_UNSAFE``).
    """

    reason = "unsafe"


class DeadlockError(TransactionAbortedError):
    """The transaction was chosen as a deadlock victim."""

    reason = "deadlock"


class LockTimeoutError(TransactionAbortedError):
    """A lock wait exceeded the configured timeout (InnoDB's
    ``innodb_lock_wait_timeout`` behaviour)."""

    reason = "timeout"


class ConstraintError(TransactionAbortedError):
    """An application-level rollback, e.g. SmallBank overdraft rules.

    These are voluntary rollbacks, not concurrency-control aborts, and are
    counted separately by the benchmark harness.
    """

    reason = "constraint"


class TransactionStateError(TransactionError):
    """An operation was attempted on a finished (committed/aborted) txn."""


class KeyNotFoundError(ReproError):
    """Read of a key with no version visible in this snapshot."""

    def __init__(self, table: str, key: object):
        super().__init__(f"no visible version of {table}[{key!r}]")
        self.table = table
        self.key = key


class DuplicateKeyError(ReproError):
    """Insert of a key that is already visible in this snapshot."""

    def __init__(self, table: str, key: object):
        super().__init__(f"duplicate key {table}[{key!r}]")
        self.table = table
        self.key = key


class TableError(ReproError):
    """Unknown table, duplicate table creation, or similar schema errors."""


class LockWaitRequired(ReproError):
    """Internal control-flow signal: a lock request was enqueued.

    Engine operations raise this when they cannot proceed until a lock is
    granted.  Executors (the threaded wrapper or the discrete-event
    simulator) catch it, wait until ``request`` is granted, and re-invoke
    the operation; lock acquisition is idempotent so the retry is safe.
    This never escapes to user code.
    """

    def __init__(self, request):
        super().__init__(f"waiting for {request!r}")
        self.request = request


class CompletionWaitRequired(ReproError):
    """Internal control-flow signal: the operation must wait for
    ``completion`` to fire, then be re-invoked.  Two raisers:

    * ``Database.begin(deferrable=True, wait=False)`` (and
      ``Database.resume_deferrable``) when the candidate snapshot is not
      yet known to be safe.  ``txn`` already exists (registered,
      snapshot assigned and watched by the ``SafeSnapshotMonitor``);
      ``completion`` fires on the verdict.  A safe verdict completes the
      re-driven begin; an unsafe one (permanent for that snapshot) makes
      ``resume_deferrable`` retake a snapshot and possibly raise again.
    * ``Database.commit(txn, wait=False)`` when the commit queued behind
      an active batch leader.  ``completion`` is the ticket's, fired by
      the leader alone once it has certified (or aborted) the whole
      group, flushed the WAL and finalized the member; the re-invoked
      commit consumes the resolved ticket — raising the member's abort
      error if group certification chose it as a victim.

    Never escapes to user code.
    """

    def __init__(self, txn, completion):
        super().__init__(f"txn {txn.id} is waiting for a completion")
        self.txn = txn
        self.completion = completion


#: Every abort classification that the metrics pipeline understands.
ABORT_REASONS = ("conflict", "unsafe", "deadlock", "timeout", "constraint", "aborted")
