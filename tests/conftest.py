"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import threading
from contextlib import contextmanager

import pytest

from repro.engine.config import EngineConfig, LockGranularity, DeadlockMode
from repro.engine.database import Database
from repro.engine.isolation import IsolationLevel
from repro.errors import CompletionWaitRequired
from repro.wal.log import WriteAheadLog


@pytest.fixture
def db() -> Database:
    """A record-granularity database with history recording on."""
    return Database(EngineConfig(record_history=True))


@pytest.fixture
def db_basic() -> Database:
    """A database using the basic boolean conflict tracker (Fig 3.3)."""
    return Database(
        EngineConfig(record_history=True, precise_conflicts=False)
    )


@pytest.fixture
def page_db() -> Database:
    """A Berkeley DB-style page-granularity database."""
    return Database(
        EngineConfig.berkeleydb_style(page_size=4, record_history=True)
    )


def fill(database: Database, table: str, rows: dict) -> None:
    """Create (if needed) and load a table."""
    try:
        database.create_table(table)
    except Exception:
        pass
    database.load(table, rows.items())


def commit_outcomes(*txns) -> list[str]:
    """Commit each transaction, collecting 'commit' or the abort reason."""
    from repro.errors import TransactionAbortedError

    outcomes = []
    for txn in txns:
        if not txn.is_active:
            outcomes.append("already-finished")
            continue
        try:
            txn.commit()
            outcomes.append("commit")
        except TransactionAbortedError as error:
            outcomes.append(error.reason)
    return outcomes


# ------------------------------------------------ staging commit groups
#
# A commit group is whatever queued while the previous leader was busy,
# so tests do not wait for one to form: they park a leader inside its
# WAL flush and queue the followers behind it themselves.


class GatedWAL(WriteAheadLog):
    """A log whose flush can be held.  Between :meth:`hold` and
    :meth:`release`, a ``flush()`` sets ``entered`` and blocks — the
    caller is then a commit leader with its versions installed, its
    locks held and the leader flag set."""

    def __init__(self, path: str | None = None):
        super().__init__(path)
        self.entered = threading.Event()
        self._open = threading.Event()
        self._open.set()

    def hold(self) -> None:
        self.entered.clear()
        self._open.clear()

    def release(self) -> None:
        self._open.set()

    def gate(self) -> None:
        if not self._open.is_set():
            self.entered.set()
            assert self._open.wait(timeout=30), "GatedWAL never released"

    def flush(self) -> int:
        self.gate()
        return super().flush()


@contextmanager
def held_leader(db: Database, txn):
    """Commit ``txn`` on a helper thread and enter the block once it is
    parked at the gate of ``db.wal`` (a :class:`GatedWAL`); leaving the
    block opens the gate and joins it, by which time the leader has also
    drained everything queued inside the block.  Yields a list that
    receives the error the leader's own commit raised, if any."""
    raised: list[BaseException] = []

    def lead():
        try:
            db.commit(txn)
        except BaseException as error:  # noqa: BLE001 - handed to the test
            raised.append(error)

    thread = threading.Thread(target=lead)
    db.wal.hold()
    thread.start()
    try:
        assert db.wal.entered.wait(timeout=10), "leader never reached the gate"
        yield raised
    finally:
        db.wal.release()
        thread.join(timeout=10)
    assert not thread.is_alive(), "leader wedged"


def queue_behind(db: Database, *followers) -> None:
    """Queue each transaction's commit, in order, behind the active
    leader; ``db.commit(txn)`` later consumes the leader's verdict."""
    for txn in followers:
        with pytest.raises(CompletionWaitRequired):
            db.commit(txn)


def commit_as_group(db: Database, leader, followers) -> None:
    """One staged group: ``followers`` ride one batch behind ``leader``."""
    with held_leader(db, leader) as raised:
        queue_behind(db, *followers)
    assert not raised, raised


class FollowerCommitDatabase(Database):
    """Every commit is certified by ``Database._run_batch``: the
    caller takes the leader's seat without a commit of its own, queues
    the transaction as a follower and drains it as a group of one — the
    path a lone ``Database.commit`` no longer exercises."""

    def commit(self, txn) -> None:
        assert self._enter_batch(txn) is None
        try:
            super().commit(txn)
            return  # the bypass: nothing to certify or log
        except CompletionWaitRequired:
            pass
        finally:
            self._lead_batches()
        super().commit(txn)
