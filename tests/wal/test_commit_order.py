"""Log order is commit order: a commit that saw another commit's writes
is never durable without them.

A prepared transaction's second phase is paused at its first log
append.  A second transaction then reads its write, writes something of
its own and commits; the log crashes the moment that commit is
acknowledged.  If the reader was acknowledged, recovery must bring the
writer back too — a reader's durable commit may not depend on a lost
one.  The writer appends its records under the commit latch that makes
its versions visible, so the reader cannot take its snapshot before
those records are in the log, and its own flush covers them.
"""

import threading

from repro import Database, EngineConfig
from repro.wal.log import WriteAheadLog
from repro.wal.recovery import recover_database


class FirstAppendPausedWAL(WriteAheadLog):
    """A log whose first write or commit append after :meth:`pause`
    blocks until :meth:`resume`, with ``paused`` set while it waits;
    later appends pass."""

    def __init__(self):
        super().__init__()
        self.paused = threading.Event()
        self._go = threading.Event()
        self._armed = threading.Lock()
        self._armed.acquire()

    def pause(self) -> None:
        self._armed.release()

    def resume(self) -> None:
        self._go.set()

    def _gate(self) -> None:
        if self._armed.acquire(blocking=False):
            self.paused.set()
            assert self._go.wait(timeout=30), "FirstAppendPausedWAL never resumed"

    def log_write(self, *args, **kwargs):
        self._gate()
        return super().log_write(*args, **kwargs)

    def log_commit(self, *args, **kwargs):
        self._gate()
        return super().log_commit(*args, **kwargs)


def test_an_acknowledged_reader_never_outlives_the_commit_it_read():
    wal = FirstAppendPausedWAL()
    db = Database(EngineConfig(), wal=wal)
    db.create_table("t")
    setup = db.begin("ssi")
    setup.write("t", "seed", 0)
    setup.commit()

    prepared = db.begin("ssi")
    prepared.write("t", "x", "from-writer")
    db.prepare_for_commit(prepared)

    def second_phase():
        db.commit_prepared(prepared)
        db.finalize_commit(prepared)

    def read_and_commit():
        reader = db.begin("ssi")
        seen = reader.read("t", "x")
        reader.write("t", "y", seen)
        reader.commit()
        acknowledged.append(seen)

    acknowledged = []
    wal.pause()
    writer_thread = threading.Thread(target=second_phase)
    reader_thread = threading.Thread(target=read_and_commit)
    try:
        writer_thread.start()
        assert wal.paused.wait(timeout=10), "the second phase never appended"
        reader_thread.start()
        reader_thread.join(timeout=1.0)
        if reader_thread.is_alive():
            # The reader waits for the writer's records to be logged.
            assert not acknowledged
            wal.resume()
            reader_thread.join(timeout=10)
        # Power fails the moment the reader's commit is acknowledged.
        assert acknowledged == ["from-writer"]
        wal.crash()
        recovered = recover_database(wal)
    finally:
        wal.resume()
        writer_thread.join(timeout=10)
        reader_thread.join(timeout=10)
    assert not writer_thread.is_alive() and not reader_thread.is_alive()
    check = recovered.begin("si")
    assert check.get("t", "y") == "from-writer"
    assert check.get("t", "x") == "from-writer", (
        "the reader's commit is durable but the commit it read is lost"
    )
    check.commit()
