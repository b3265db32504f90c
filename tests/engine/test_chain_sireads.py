"""The point-SIREAD protocol on version chains, interleaving by interleaving.

At record granularity an SSI (or SGT) point read keeps its SIREAD on the
record's :class:`~repro.mvcc.version.VersionChain`: the reader stores its
id in ``chain.readers`` and then reads ``chain.writer``; a writer whose
policy tracks reads is published in ``chain.writer`` by its EXCLUSIVE
grant — inside the lock manager, from the wait queue too — and then reads
the readers.  Each case below forces one sub-operation interleaving of
that publish-then-check pair through a hook, never through threads and
luck, and checks that the rw edge (or the queue order) is the one the
lock-table layout recorded: the second of the two always sees the first.
"""

import pytest

from repro import Database, EngineConfig
from repro.errors import LockWaitRequired
from repro.locking.modes import LockMode

from tests.conftest import fill


class HookedReaders(dict):
    """A chain's reader set that runs ``hook`` right after an id is
    stored: the window between a reader's store and its writer check."""

    def __init__(self, readers, hook):
        super().__init__(readers)
        self.hook = hook

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        hook, self.hook = self.hook, None
        if hook is not None:
            hook()


class HookedDatabase(Database):
    """Runs ``after_exclusive`` once an EXCLUSIVE grant returns: the
    window between a writer's publication and its read of the readers."""

    after_exclusive = None

    def _acquire(self, txn, resource, mode, chain=None):
        result = super()._acquire(txn, resource, mode, chain)
        hook, self.after_exclusive = self.after_exclusive, None
        if hook is not None and mode is LockMode.EXCLUSIVE:
            hook()
        return result


@pytest.fixture
def db():
    database = HookedDatabase(EngineConfig(record_history=True))
    fill(database, "t", {"k": 0, "j": 0})
    return database


def test_reader_stores_then_writer_is_granted_before_the_reader_checks(db):
    """(a) The writer's grant lands between the reader's store and its
    writer check: the writer meets the reader's id, and the reader also
    sees the published writer — one rw edge reader -> writer."""
    reader, writer = db.begin("ssi"), db.begin("ssi")
    writer.read("t", "j")  # snapshot before the write
    seen = []

    def grant_between():
        writer.write("t", "k", 1)
        seen.append(writer.in_conflict)  # the writer met the stored id

    chain = db.table("t").chain("k")
    chain.readers = HookedReaders(chain.readers, grant_between)
    assert reader.read("t", "k") == 0
    assert seen == [reader]
    assert chain.writer == writer.id
    assert reader.out_conflict is writer and writer.in_conflict is reader


def test_writer_publishes_then_reader_reads_before_the_writer_checks(db):
    """(b) The reader runs whole between the writer's publication and its
    read of the readers: the reader sees the pending writer, and the
    writer still meets the reader's id."""
    reader, writer = db.begin("ssi"), db.begin("ssi")
    reader.read("t", "j")
    seen = []

    def read_between():
        reader.read("t", "k")
        seen.append(reader.out_conflict)  # the reader met the published writer

    db.after_exclusive = read_between
    writer.write("t", "k", 1)
    assert seen == [writer]
    assert reader.out_conflict is writer and writer.in_conflict is reader
    assert reader.id in db.table("t").chain("k").readers


def test_promoted_waiter_is_pending_before_its_executor_retries(db):
    """(c) A queued EXCLUSIVE request granted by ``_promote`` publishes
    its owner at once: a reader of the key before the waiter's retry
    records the edge to it, as a reader meeting its granted lock did."""
    holder = db.begin("ssi")
    holder.write("t", "k", 1)
    waiter = db.begin("ssi")
    with pytest.raises(LockWaitRequired) as wait:
        db.write(waiter, "t", "k", 2)  # the engine call raises; txn.write blocks
    holder.commit()
    assert wait.value.request.resolved  # granted from the queue
    chain = db.table("t").chain("k")
    assert chain.writer == waiter.id
    reader = db.begin("ssi")
    assert reader.read("t", "k") == 1  # before the waiter retries
    assert reader.out_conflict is waiter and waiter.in_conflict is reader


def test_two_first_readers_share_the_set_made_with_the_chain(db):
    """(d) The reader set exists before any read, so two first readers
    interleaved at the store both land in the one set, and a writer
    meets both."""
    first, second, writer = db.begin("ssi"), db.begin("ssi"), db.begin("ssi")
    writer.read("t", "j")
    chain = db.table("t").chain("k")
    assert chain.readers == {}
    hooked = chain.readers = HookedReaders(
        chain.readers, lambda: second.read("t", "k")
    )
    first.read("t", "k")
    assert chain.readers is hooked
    assert set(hooked) == {first.id, second.id}
    writer.write("t", "k", 1)
    assert first.out_conflict is writer and second.out_conflict is writer
    assert writer.in_conflict is not None


def test_chain_reader_upgrade_queues_ahead_of_an_earlier_plain_waiter(db):
    """(e) A transaction whose SIREAD sits on the chain is an upgrader:
    its EXCLUSIVE request goes to the front, ahead of a plain waiter that
    came first, and counts as an upgrade."""
    holder, plain, reader = db.begin("ssi"), db.begin("ssi"), db.begin("ssi")
    reader.read("t", "k")
    holder.write("t", "k", 1)
    with pytest.raises(LockWaitRequired):
        db.write(plain, "t", "k", 2)
    upgrades = db.locks.stats["upgrades"]
    with pytest.raises(LockWaitRequired):
        db.write(reader, "t", "k", 3)
    assert db.locks.stats["upgrades"] == upgrades + 1
    assert [r.owner.id for r in db.locks.waiting_requests()] == [reader.id, plain.id]


def test_vacuum_keeps_a_tombstoned_chain_a_live_reader_still_reads():
    """A reader's SIREAD on a deleted key must meet a later re-insert, so
    vacuum keeps the emptied chain while a registered reader is on it."""
    db = Database(EngineConfig(record_history=True))
    fill(db, "t", {"k": 0})
    deleter = db.begin("ssi")
    deleter.delete("t", "k")
    deleter.commit()
    reader = db.begin("ssi")
    assert reader.get("t", "k") is None
    inserter = db.begin("ssi")  # concurrent with the reader: the edge is real
    assert inserter.get("t", "k") is None
    reader.commit()
    db.vacuum()  # the tombstone is below every snapshot: the chain empties
    assert db.table("t").chain("k") is not None
    inserter.insert("t", "k", 1)
    assert reader.out_conflict is inserter and inserter.in_conflict is reader


def test_vacuum_forgets_the_ids_of_retired_readers():
    """Retirement leaves a reader's id on the chains it read; a key no
    writer touches is pruned of them by vacuum, and a live reader stays."""
    db = Database(EngineConfig())
    fill(db, "t", {"k": 0})
    for _ in range(5):
        reader = db.begin("ssi")
        reader.read("t", "k")
        reader.commit()
    live = db.begin("ssi")
    live.read("t", "k")
    chain = db.table("t").chain("k")
    assert len(chain.readers) == 6
    db.vacuum()
    assert list(chain.readers) == [live.id]
