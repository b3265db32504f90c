"""Regression tests for review-found races in the fine-grained latching PR.

Three distinct windows, each made deterministic here:

* the scan materialise window: a writer whose whole lock lifetime
  (acquire, commit, finalize-release) fits inside ``scan_chunks`` must
  still be met — an SSI scan reports the rw edge through the newer
  version, an S2PL scan's range (placed first) makes the writer wait;
* the ``LockRequest`` subscribe-vs-resolve race: an unsynchronised
  check-then-append could land a waiter's callback on the already
  swapped-out list, hanging the client thread forever;
* the engine-side wait loop now also terminates on a resolved request
  even if the wakeup event were somehow lost.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import LockWaitRequired
from repro.locking.manager import (
    LockMode,
    LockRequest,
    RequestState,
    range_resource,
)

from tests.conftest import fill


def _inject_committed_insert(db, table, level, key, value, writer_reads=None):
    """Patch the table's scan materialisation entry point
    (``scan_chunks``) so the *first* call materialises the key set,
    then runs a complete writer lifecycle (begin, optional reads,
    insert, commit, finalize — every lock acquired *and released*)
    before returning the now-stale list.  Later calls see the real
    tree.  Returns the writer transactions list (filled on trigger)."""
    real_chunks = table.scan_chunks
    state = {"fired": False}
    writers = []

    def fire():
        if not state["fired"]:
            state["fired"] = True
            writer = db.begin(level)
            for read_key in writer_reads or ():
                db.read(writer, table.name, read_key)
            db.insert(writer, table.name, key, value)
            db.commit(writer)  # prepare + finalize: all locks released
            writers.append(writer)

    def patched_chunks(lo, hi, chunk_size=None):
        stale = list(real_chunks(lo, hi, chunk_size))
        fire()
        return iter(stale)

    table.scan_chunks = patched_chunks
    return writers


class TestScanMaterializeWindow:
    def test_s2pl_insert_in_window_waits(self, db):
        """S2PL places its key range before materialising, so an insert
        attempted inside the materialise window can no longer commit
        behind the scan: it waits for the scanner, the scan returns the
        rows committed before it, and the insert goes through once the
        scanner commits."""
        fill(db, "t", {1: "a", 5: "b"})
        table = db.table("t")
        scanner, writer = db.begin("s2pl"), db.begin("s2pl")
        real_chunks = table.scan_chunks
        waits = []

        def patched_chunks(lo, hi, chunk_size=None):
            stale = list(real_chunks(lo, hi, chunk_size))
            table.scan_chunks = real_chunks
            with pytest.raises(LockWaitRequired) as wait:
                db.insert(writer, "t", 3, "x")
            waits.append(wait.value.request)
            return iter(stale)

        table.scan_chunks = patched_chunks
        assert db.scan(scanner, "t", 1, 5) == [(1, "a"), (5, "b")]
        (request,) = waits
        assert request.resource == range_resource("t", 1, 5)
        scanner.commit()
        assert request.state is RequestState.GRANTED
        db.insert(writer, "t", 3, "x")
        writer.commit()

    def test_ssi_scan_marks_rw_edge_for_window_insert(self, db):
        """SSI: the scanner's snapshot ignores the in-window committed
        insert, but the reader->writer rw-antidependency must still be
        recorded via the newer-version check on the re-materialised
        chain (Fig 3.4 lines 8-9)."""
        fill(db, "t", {1: "a", 5: "b"})
        table = db.table("t")
        scanner = db.begin("ssi")
        db.read(scanner, "t", 1)  # pin the snapshot before the writer runs
        # The writer reads too, so its record is suspended (findable)
        # after finalize rather than dropped.
        writers = _inject_committed_insert(
            db, table, "ssi", 3, "x", writer_reads=[5]
        )
        rows = db.scan(scanner, "t", 1, 5)
        assert rows == [(1, "a"), (5, "b")]  # snapshot: phantom invisible
        (writer,) = writers
        assert scanner.out_conflict, "reader->writer rw edge was lost"
        assert writer.in_conflict
        db.abort(scanner)


class TestLockRequestResolveRace:
    class _Owner:
        def __init__(self, owner_id):
            self.id = owner_id

    def test_subscribe_after_resolution_fires_immediately(self):
        request = LockRequest(self._Owner(1), ("t", 1), LockMode.SHARED)
        request._resolve(RequestState.GRANTED)
        fired = []
        request.on_fire(fired.append)
        assert fired == [request]

    def test_subscribe_before_resolution_fires_once(self):
        request = LockRequest(self._Owner(1), ("t", 1), LockMode.SHARED)
        fired = []
        request.on_fire(fired.append)
        request._resolve(RequestState.DENIED, None)
        assert fired == [request]

    def test_concurrent_subscribe_and_resolve_never_drops_callback(self):
        """Hammer the subscribe/resolve interleaving: whichever side wins,
        the callback must fire exactly once (the original unsynchronised
        check-then-append could drop it, hanging the waiter)."""
        for i in range(500):
            request = LockRequest(self._Owner(i), ("t", i), LockMode.SHARED)
            fired = []
            barrier = threading.Barrier(2)

            def subscribe():
                barrier.wait()
                request.on_fire(fired.append)

            def resolve():
                barrier.wait()
                request._resolve(RequestState.GRANTED)

            threads = [
                threading.Thread(target=subscribe),
                threading.Thread(target=resolve),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert fired == [request]


class TestCancelVsResolveRace:
    """``cancel_request`` racing a grant must settle on exactly one
    terminal state — through the full Database API, where the loser of
    the race used to double-resolve and emit a spurious deny trace."""

    def test_timeout_cancel_racing_commit_grant(self):
        from repro.engine.config import EngineConfig
        from repro.engine.database import Database
        from repro.errors import TransactionAbortedError
        from repro.locking.manager import record_resource

        for i in range(25):
            db = Database(EngineConfig())
            fill(db, "t", {"k": 0})
            holder = db.begin("s2pl")
            holder.read_for_update("t", "k")
            waiter = db.begin("s2pl")
            result = db.locks.acquire_nowait(
                waiter, record_resource("t", "k"), LockMode.SHARED)
            request = result.request
            fired = []
            request.on_fire(lambda r: fired.append(r.state))
            barrier = threading.Barrier(2)

            def cancel():
                barrier.wait()
                db.cancel_lock_request(request)

            def grant():
                barrier.wait()
                holder.commit()

            threads = [threading.Thread(target=cancel),
                       threading.Thread(target=grant)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(fired) == 1, "exactly one terminal state"
            assert fired == [request.state]
            if request.state is RequestState.DENIED:
                # the timeout won: the waiter is doomed and aborts cleanly
                assert waiter.doom_error is not None
                with pytest.raises(TransactionAbortedError):
                    waiter.read("t", "k")
            else:
                assert waiter.doom_error is None
                waiter.commit()
            db.cleanup_suspended()
            assert not any(db.locks.residue().values())


class TestRetainAllReadsFastPath:
    def test_pure_siread_owner_is_retained(self, db):
        fill(db, "t", {1: "a"})
        reader = db.begin("ssi")
        assert db.read(reader, "t", 1) == "a"
        assert db.locks.retain_all_reads(reader) is True
        assert db.locks.holds_any_siread(reader)

    def test_shared_reader_takes_full_release_path(self, db):
        fill(db, "t", {1: "a"})
        reader = db.begin("s2pl")
        assert db.read(reader, "t", 1) == "a"
        assert db.locks.retain_all_reads(reader) is False
        reader.commit()
