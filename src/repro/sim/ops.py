"""Operation descriptors for transaction programs.

A transaction program is a generator function that yields these
descriptors and receives each operation's result back::

    def balance(name):
        cid = yield Read("account", name)
        savings = yield Read("saving", cid)
        checking = yield Read("checking", cid)
        return savings + checking

Programs are executor-agnostic, and every executor steps them through
one :class:`ProgramRun`: the discrete-event simulator charges simulated
time per op; the direct executor blocks its thread through waits; a
session suspends on them; the exhaustive interleaving driver
single-steps them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Hashable

from repro.errors import (
    CompletionWaitRequired,
    ConstraintError,
    DuplicateKeyError,
    KeyNotFoundError,
    TransactionAbortedError,
)


@dataclass(frozen=True, slots=True)
class Read:
    """Point read; the program receives the value (KeyNotFound aborts)."""

    table: str
    key: Hashable


@dataclass(frozen=True, slots=True)
class Get:
    """Point read returning ``default`` when the key is not visible."""

    table: str
    key: Hashable
    default: Any = None


@dataclass(frozen=True, slots=True)
class ReadForUpdate:
    """SELECT ... FOR UPDATE — the promotion primitive (Section 2.6.2)."""

    table: str
    key: Hashable


@dataclass(frozen=True, slots=True)
class Write:
    """Blind upsert of an existing (or new, non-phantom-safe) key."""

    table: str
    key: Hashable
    value: Any


@dataclass(frozen=True, slots=True)
class Insert:
    """Phantom-safe creation of a new key."""

    table: str
    key: Hashable
    value: Any


@dataclass(frozen=True, slots=True)
class Delete:
    """Phantom-safe removal (installs a tombstone)."""

    table: str
    key: Hashable


@dataclass(frozen=True, slots=True)
class Scan:
    """Predicate read: visible (key, value) pairs with lo <= key <= hi."""

    table: str
    lo: Hashable | None = None
    hi: Hashable | None = None


@dataclass(frozen=True, slots=True)
class IndexScan:
    """Range scan over a secondary index: (index_key, primary_key) pairs."""

    index: str
    lo: Hashable | None = None
    hi: Hashable | None = None


@dataclass(frozen=True, slots=True)
class IndexLookup:
    """Primary keys of rows matching one index key."""

    index: str
    key: Hashable


@dataclass(frozen=True, slots=True)
class Compute:
    """Pure CPU work of ``units`` abstract cost units — e.g. the sort in
    the sibench query.  No engine interaction."""

    units: float = 1.0


@dataclass(frozen=True, slots=True)
class Rollback:
    """Voluntary application rollback (SmallBank's business rules); the
    transaction aborts with reason "constraint"."""

    message: str = "application rollback"


Op = (
    Read | Get | ReadForUpdate | Write | Insert | Delete | Scan
    | IndexScan | IndexLookup | Compute | Rollback
)


def apply_op(db, txn, op: Op) -> Any:
    """Execute one descriptor against the engine (shared by executors).

    May raise :class:`~repro.errors.CompletionWaitRequired` — callers
    decide how to wait — or any abort error.  :class:`Compute` is a no-op here
    (executors account for its cost).  :class:`Rollback` raises
    ConstraintError after aborting.
    """
    if isinstance(op, Read):
        return db.read(txn, op.table, op.key)
    if isinstance(op, Get):
        return db.get(txn, op.table, op.key, op.default)
    if isinstance(op, ReadForUpdate):
        return db.read_for_update(txn, op.table, op.key)
    if isinstance(op, Write):
        return db.write(txn, op.table, op.key, op.value)
    if isinstance(op, Insert):
        return db.insert(txn, op.table, op.key, op.value)
    if isinstance(op, Delete):
        return db.delete(txn, op.table, op.key)
    if isinstance(op, Scan):
        return db.scan(txn, op.table, op.lo, op.hi)
    if isinstance(op, IndexScan):
        return db.index_scan(txn, op.index, op.lo, op.hi)
    if isinstance(op, IndexLookup):
        return db.index_lookup(txn, op.index, op.key)
    if isinstance(op, Compute):
        return None
    if isinstance(op, Rollback):
        db.abort(txn, reason="constraint")
        raise ConstraintError(op.message, txn_id=txn.id)
    raise TypeError(f"unknown op {op!r}")


#: the errors that end a program run as an abort rather than a failure
ABORTS = (TransactionAbortedError, DuplicateKeyError, KeyNotFoundError)


def abort_reason(error: BaseException) -> str | None:
    """How a program run that raised ``error`` is classified: an engine
    abort keeps its reason, an application error the program cannot get
    past (a duplicate insert, a read of a missing key) is a "constraint"
    abort, and anything else is a failure (None)."""
    if isinstance(error, TransactionAbortedError):
        return error.reason
    if isinstance(error, (DuplicateKeyError, KeyNotFoundError)):
        return "constraint"
    return None


class ProgramRun:
    """One transaction program stepped against the engine in ``txn``.

    ``op`` is the pending operation, None once the program has returned
    (``value`` then holds its return value).  :meth:`step` applies the
    pending op and advances the program to its next one, or commits
    through ``commit`` once it has returned (None: the caller commits).
    ``status`` is "running", "committed" or the abort classification.

    Waits propagate untouched: a
    :class:`~repro.errors.CompletionWaitRequired` leaves the run where it
    was, so each executor waits its own way and steps again — the retry
    re-applies the op, which aborts the run if its wait was cancelled by
    a doom.  Any other error aborts the transaction, classified by
    :func:`abort_reason`, and propagates unchanged.
    """

    __slots__ = ("db", "txn", "program", "op", "value", "status", "_commit")

    def __init__(self, db, txn, program: Generator,
                 commit: Callable[[Any], None] | None = None) -> None:
        self.db = db
        self.txn = txn
        self.program = program
        self.op: Op | None = None
        self.value: Any = None
        self.status = "running"
        self._commit = commit
        self.advance(None)

    def advance(self, sent: Any) -> None:
        """Send ``sent`` into the program and take its next op."""
        try:
            self.op = self.program.send(sent)
        except StopIteration as stop:
            self.op = None
            self.value = stop.value
        except BaseException as error:
            self._abort(error)
            raise

    def apply(self) -> Any:
        """Execute the pending op and return its result."""
        return self._attempt(apply_op, self.db, self.txn, self.op)

    def step(self) -> bool:
        """Apply the pending op and advance, or commit once the program
        has returned.  Returns False once there is nothing left to run."""
        if self.op is not None:
            self.advance(self.apply())
            return True
        if self._commit is not None:
            self._attempt(self._commit, self.txn)
            self.status = "committed"
        return False

    def _attempt(self, engine_call: Callable[..., Any], *args: Any) -> Any:
        """Call the engine: a wait propagates, any other error aborts."""
        try:
            return engine_call(*args)
        except CompletionWaitRequired:
            raise
        except BaseException as error:
            self._abort(error)
            raise

    def _abort(self, error: BaseException) -> None:
        reason = abort_reason(error)
        self.status = reason or "aborted"
        self.db.abort(self.txn, reason)
