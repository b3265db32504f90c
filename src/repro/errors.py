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

One internal signal never reaches user code: :class:`CompletionWaitRequired`
(with its lock-wait subclass :class:`LockWaitRequired`), the engine's one
wait, which executors catch, wait out and answer with a retry.
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


class CompletionWaitRequired(ReproError):
    """Internal control-flow signal, the engine's one wait: the operation
    must wait for ``completion`` (a :class:`~repro.engine.waits.Completion`)
    to fire, then be re-invoked.  Every executor catches it, waits its own
    way and retries; it never escapes to user code.  The retry finds out
    how the wait ended — and a wait cancelled by a doom of ``txn``
    (deadlock victim, lock-wait timeout, interrupted session) aborts it
    with the doom's error in the engine, never in the executor.

    Raised for a lock request that must queue (:class:`LockWaitRequired`,
    whose ``request`` arms a ``lock_timeout`` deadline) and for a
    deferrable transaction's first read or scan while its candidate
    snapshot is not yet known to be safe (the completion fires on the
    monitor's verdict); never by a commit.  The engine raises it and
    never parks a thread itself.
    """

    #: the lock request of a lock wait (:class:`LockWaitRequired`)
    request = None

    def __init__(self, txn, completion):
        super().__init__(f"txn {txn.id} is waiting for a completion")
        self.txn = txn
        self.completion = completion


class LockWaitRequired(CompletionWaitRequired):
    """A lock request was enqueued: ``request`` is the
    :class:`~repro.locking.manager.LockRequest` — the completion to wait
    for — and its owner the waiting transaction."""

    def __init__(self, request):
        ReproError.__init__(self, f"waiting for {request!r}")
        self.request = self.completion = request

    @property
    def txn(self):
        return self.request.owner


#: Every abort classification that the metrics pipeline understands.
ABORT_REASONS = ("conflict", "unsafe", "deadlock", "timeout", "constraint", "aborted")
