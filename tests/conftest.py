"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import pytest

from repro.engine.config import EngineConfig, LockGranularity, DeadlockMode
from repro.engine.database import Database
from repro.engine.isolation import IsolationLevel
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
# Commits share a log flush when they append while another commit's
# flush is in its fsync, so tests do not wait for that to happen: they
# hold one committer inside its fsync and commit the others behind it.


class GatedWAL(WriteAheadLog):
    """A log whose frame write can be held.  Between :meth:`hold` and
    :meth:`release`, a flush that reaches its write sets ``entered`` and
    blocks there — with the flush in progress and the append latch free,
    so other committers append their records and wait for it."""

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

    def _sync(self, records) -> None:
        self.gate()
        super()._sync(records)


def on_thread(fn, *args) -> tuple[threading.Thread, list]:
    """Start ``fn(*args)`` on a helper thread; the list it returns
    receives the error ``fn`` raised, if any."""
    raised: list[BaseException] = []

    def run():
        try:
            fn(*args)
        except BaseException as error:  # noqa: BLE001 - handed to the test
            raised.append(error)

    thread = threading.Thread(target=run)
    thread.start()
    return thread, raised


@contextmanager
def held_flush(db: Database, txn):
    """Commit ``txn`` on a helper thread and enter the block once it is
    parked inside the flush of ``db.wal`` (a :class:`GatedWAL`) — its
    versions installed and logged, its locks held; leaving the block
    opens the gate and joins it.  Yields a list that receives the error
    its commit raised, if any."""
    db.wal.hold()
    thread, raised = on_thread(db.commit, txn)
    try:
        assert db.wal.entered.wait(timeout=10), "committer never reached the gate"
        yield raised
    finally:
        db.wal.release()
        thread.join(timeout=10)
    assert not thread.is_alive(), "held committer wedged"


def commit_behind(db: Database, *txns) -> list[tuple[threading.Thread, list]]:
    """Commit each transaction on its own thread while a flush is held
    (:func:`held_flush`); returns once each has been decided and, if it
    wrote, has appended its records and waits for that flush, with the
    ``on_thread`` pairs to join."""
    started = [on_thread(db.commit, txn) for txn in txns]
    deadline = time.monotonic() + 10
    while not all(
        txn.is_aborted or txn.is_committed and (txn.commit_lsn or not txn.write_set)
        for txn in txns
    ):
        assert time.monotonic() < deadline, "committers never appended"
        time.sleep(0.001)
    return started


def join_all(started, timeout: float = 10) -> list[BaseException]:
    """Join ``on_thread`` pairs; returns every error they raised."""
    errors: list[BaseException] = []
    for thread, raised in started:
        thread.join(timeout=timeout)
        assert not thread.is_alive(), "committer wedged"
        errors.extend(raised)
    return errors


def commit_as_group(db: Database, first, others) -> None:
    """One staged group: ``others`` append while ``first`` is held in
    its fsync, and the next flush makes all of them durable at once."""
    with held_flush(db, first) as raised:
        started = commit_behind(db, *others)
    errors = raised + join_all(started)
    assert not errors, errors
