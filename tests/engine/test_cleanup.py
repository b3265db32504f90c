"""Suspended-transaction lifecycle and cleanup tests (Sections 3.3,
4.3.1, 4.6.1, 4.8)."""

import contextlib
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, EngineConfig
from repro.errors import (
    CompletionWaitRequired,
    LockWaitRequired,
    TransactionAbortedError,
    TransactionStateError,
)

from tests.conftest import fill


def make_db(eager: bool, threshold: int = 4):
    return Database(
        EngineConfig(eager_cleanup=eager, cleanup_threshold=threshold)
    )


def committed_reader(db, keys=("x",)):
    txn = db.begin("ssi")
    for key in keys:
        txn.read("t", key)
    txn.commit()
    return txn


class TestEagerCleanup:
    def test_no_overlap_means_no_retention(self):
        db = make_db(eager=True)
        fill(db, "t", {"x": 0})
        for _ in range(5):
            committed_reader(db)
        assert db.suspended_count() == 0

    def test_overlapping_txn_pins_suspended_records(self):
        db = make_db(eager=True)
        fill(db, "t", {"x": 0, "y": 0})
        pin = db.begin("ssi")
        pin.read("t", "y")  # allocates the pinning snapshot
        readers = [committed_reader(db) for _ in range(3)]
        assert db.suspended_count() == 3
        assert all(txn.suspended for txn in readers)
        pin.commit()
        assert db.suspended_count() == 0
        assert not any(txn.suspended for txn in readers)

    def test_siread_locks_released_at_cleanup(self):
        db = make_db(eager=True)
        fill(db, "t", {"x": 0, "y": 0})
        pin = db.begin("ssi")
        pin.read("t", "y")
        reader = committed_reader(db)
        assert db.locks.holds_any_siread(reader)
        pin.commit()
        assert not db.locks.holds_any_siread(reader)


class TestLazyCleanup:
    def test_retained_until_threshold(self):
        db = make_db(eager=False, threshold=4)
        fill(db, "t", {"x": 0})
        for _ in range(4):
            committed_reader(db)
        # lazy: still within threshold, nothing cleaned
        assert db.suspended_count() == 4
        committed_reader(db)  # pushes past the threshold
        assert db.suspended_count() <= 1

    def test_manual_cleanup(self):
        db = make_db(eager=False, threshold=100)
        fill(db, "t", {"x": 0})
        for _ in range(5):
            committed_reader(db)
        cleaned = db.cleanup_suspended()
        assert cleaned == 5
        assert db.suspended_count() == 0


class TestRegistryHygiene:
    def test_registry_does_not_leak(self):
        db = make_db(eager=True)
        fill(db, "t", {"x": 0})
        for _ in range(20):
            committed_reader(db)
        assert len(db._registry) == 0
        assert db.locks.table_size() == 0

    def test_aborted_txns_fully_removed(self):
        db = make_db(eager=True)
        fill(db, "t", {"x": 0})
        txn = db.begin("ssi")
        txn.read("t", "x")
        txn.abort()
        assert txn.id not in db._registry
        assert not db.locks.holds_any_siread(txn)

    def test_version_creator_lookup_survives_retention(self):
        """A suspended writer must stay findable for newer-version
        conflict marking (Fig 3.4 lines 8-9)."""
        db = make_db(eager=True)
        fill(db, "t", {"x": 0, "y": 0})
        pin = db.begin("ssi")
        pin.read("t", "y")
        writer = db.begin("ssi")
        writer.read("t", "y")  # gives it a SIREAD so it suspends
        writer.write("t", "x", 1)
        writer.commit()
        assert writer.id in db._registry
        # pin now reads x and must see the rw conflict to writer
        before = db.tracker.stats["marked"]
        pin.read("t", "x")
        assert db.tracker.stats["marked"] > before
        pin.abort()


# ------------------------------------------------- horizon and head sweep


def brute_force_horizon(db):
    """The cleanup horizon by definition: the oldest snapshot among
    active transactions."""
    return min(
        (txn.read_ts for txn in db._active.values() if txn.read_ts is not None),
        default=float("inf"),
    )


def maintained_horizon(db):
    with db._txn_latch:
        return db._oldest_active_read_ts()


def retake_after_unsafe(db, reader):
    """Drive a deferrable reader through an unsafe verdict: its first
    read takes a candidate snapshot, the monitor proves the candidate
    unsafe, and the next read takes a fresh snapshot."""
    with contextlib.suppress(CompletionWaitRequired):
        db.get(reader, "t", "a")
    if reader.snapshot_safe is False:
        with db._tracker_latch:
            db.safe_snapshots._verdict_unsafe(reader)
        db.get(reader, "t", "a")


LEVELS = ("ssi", "ssi-ro", "si", "s2pl", "sgt")
KEYS = ("a", "b", "c", "d")

step = st.one_of(
    st.tuples(st.just("begin"), st.sampled_from(LEVELS), st.booleans()),
    st.tuples(st.just("deferrable"), st.just(0), st.just(False)),
    st.tuples(st.just("read"), st.integers(0, 7), st.sampled_from(KEYS)),
    st.tuples(st.just("write"), st.integers(0, 7), st.sampled_from(KEYS)),
    st.tuples(st.just("commit"), st.integers(0, 7), st.just(None)),
    st.tuples(st.just("abort"), st.integers(0, 7), st.just(None)),
    st.tuples(st.just("resnapshot"), st.integers(0, 7), st.just(None)),
)


class TestIncrementalHorizon:
    @settings(max_examples=80, deadline=None)
    @given(deferred=st.booleans(), steps=st.lists(step, max_size=40))
    def test_horizon_matches_brute_force(self, deferred, steps):
        db = Database(EngineConfig(deferred_snapshot=deferred))
        fill(db, "t", {key: 0 for key in KEYS})
        live: list = []
        for op, arg, extra in steps:
            if op == "begin":
                live.append(db.begin(arg, read_only=extra and arg != "s2pl"))
            elif op == "deferrable":
                live.append(db.begin("ssi", deferrable=True))
            elif live:
                txn = live[arg % len(live)]
                try:
                    if op == "read":
                        db.get(txn, "t", extra)
                    elif op == "write" and not txn.read_only:
                        db.write(txn, "t", extra, arg)
                    elif op == "commit":
                        db.commit(txn)
                    elif op == "abort":
                        db.abort(txn)
                    elif op == "resnapshot":
                        readers = [t for t in live if t._safe_event is not None]
                        if readers:
                            txn = readers[arg % len(readers)]
                            retake_after_unsafe(db, txn)
                except CompletionWaitRequired:
                    pass
                except LockWaitRequired:
                    db.abort(txn)
                except (TransactionAbortedError, TransactionStateError):
                    pass
                if not txn.is_active:
                    live.remove(txn)
            assert maintained_horizon(db) == brute_force_horizon(db)
            assert len(db._snapshots) <= 2 * len(db._active) + 17
        for txn in live:
            db.abort(txn)
        while db.cleanup_suspended():
            pass
        assert maintained_horizon(db) == float("inf")
        assert not db._snapshots
        assert db.suspended_count() == 0
        assert not db._retired_writers

    def test_resnapshot_leaves_a_dead_entry_that_never_counts(self):
        """A deferrable reader whose first snapshot is proven unsafe takes
        a fresh one; the abandoned entry must not hold the horizon."""
        db = make_db(eager=True)
        fill(db, "t", {"k1": 0, "k2": 0})
        pivot = db.begin("ssi")
        pivot.read("t", "k1")
        t_out = db.begin("ssi")
        t_out.write("t", "k1", 1)
        t_out.commit()  # pivot -rw-> t_out, committed
        reader = db.begin("ssi", deferrable=True)
        with pytest.raises(CompletionWaitRequired) as waiting:
            db.get(reader, "t", "k2")  # the first read takes a candidate
        first = reader.snapshot
        pivot.write("t", "k2", 1)
        pivot.commit()  # completes a structure the reader can join
        assert waiting.value.completion.fired
        assert reader.snapshot_safe is False
        assert db.get(reader, "t", "k2") == 1  # the retry retakes it
        assert reader.snapshot is not first
        assert reader.snapshot_safe
        assert maintained_horizon(db) == reader.read_ts
        assert maintained_horizon(db) == brute_force_horizon(db)
        reader.commit()
        assert maintained_horizon(db) == float("inf")
        assert db.suspended_count() == 0

    @pytest.mark.parametrize("level", ["si", "s2pl", "ssi"])
    @pytest.mark.parametrize("finish", ["commit", "abort"])
    def test_every_exit_prunes_the_snapshot_deque(self, level, finish):
        """SI and S2PL commits never sweep, and aborts never do: each
        exit from the active set must prune the deque itself."""
        db = make_db(eager=True)
        fill(db, "t", {"x": 0})
        for value in range(1000):
            txn = db.begin(level)
            txn.write("t", "x", txn.read("t", "x") + value)
            getattr(txn, finish)()
            assert len(db._snapshots) <= len(db._active)
        assert not db._snapshots

    def test_snapshot_deque_stays_bounded_behind_a_pinned_head(self):
        db = make_db(eager=True)
        fill(db, "t", {"x": 0, "y": 0})
        pin = db.begin("si")
        pin.read("t", "y")
        for _ in range(1000):
            txn = db.begin("si")
            txn.write("t", "x", txn.read("t", "x") + 1)
            txn.commit()
        assert len(db._snapshots) <= 2 * len(db._active) + 16
        assert maintained_horizon(db) == pin.read_ts
        pin.commit()
        assert not db._snapshots

    def test_horizon_lag_gauge(self):
        db = make_db(eager=True)
        fill(db, "t", {"x": 0})
        gauge = lambda: db.metrics.snapshot()["gauges"]["cleanup_horizon_lag"]  # noqa: E731
        assert gauge() == 0
        pin = db.begin("ssi")
        pin.read("t", "x")
        for _ in range(5):
            committed_reader(db)
        assert gauge() == db.clock.now() - pin.read_ts > 0
        pin.commit()
        assert gauge() == 0


class TestHeadSweep:
    def test_pinned_horizon_retires_nothing_then_everything(self):
        db = make_db(eager=True)
        fill(db, "t", {"x": 0, "y": 0})
        pin = db.begin("ssi")
        pin.read("t", "y")
        readers = []
        for _ in range(200):
            readers.append(committed_reader(db))
            assert db.cleanup_suspended() == 0
            assert list(db._suspended) == readers
        cleaned = db.stats["cleaned"]
        pin.commit()  # its own sweep: the pin and all 200 retire
        assert db.stats["cleaned"] - cleaned == 201
        assert db.suspended_count() == 0
        assert not db._registry
        assert not any(db.locks.residue().values())

    def test_sgt_veto_does_not_block_ssi_entries_behind_it(self):
        db = make_db(eager=True)
        fill(db, "t", {"x": 0, "y": 0})
        reader = db.begin("sgt")
        reader.read("t", "x")
        node = db.begin("sgt")
        node.write("t", "x", 1)  # rw edge reader -> node
        node.commit()
        behind = committed_reader(db, keys=("y",))  # ssi, after node
        pin = db.begin("ssi")
        pin.read("t", "y")  # the horizon moves past node and behind
        reader.commit()  # after the pin: stays suspended
        # node is at the horizon but vetoed (incoming edge from reader);
        # the SSI reader behind it still retires.
        assert db._set_aside == [node]
        assert db.find_transaction(behind.id) is None
        assert not behind.suspended
        assert db.suspended_count() == 2  # node set aside, reader queued
        pin.commit()  # reader retires, draining node's incoming edge
        db.cleanup_suspended()  # the recheck retires node
        assert db.suspended_count() == 0
        assert not db._set_aside
        assert not db.certifier._nodes
        assert not any(db.locks.residue().values())

    def test_out_of_order_finalize_still_drains(self):
        """Two committers finalize in reverse commit_ts order: the later
        one sits at the head, and a concurrent reader still finds it."""
        db = make_db(eager=True)
        fill(db, "t", {"a": 0, "b": 0, "x": 0, "y": 0})
        pin = db.begin("ssi")
        pin.read("t", "a")  # snapshot before both commits
        first = db.begin("ssi")
        first.read("t", "a")
        first.write("t", "x", 1)
        second = db.begin("ssi")
        second.read("t", "b")
        second.write("t", "y", 1)
        db.prepare_commit(first)
        db.prepare_commit(second)
        assert first.commit_ts < second.commit_ts
        db.finalize_commit(second)
        db.finalize_commit(first)
        assert list(db._suspended) == [second, first]
        marked = db.tracker.stats["marked"]
        pin.read("t", "y")  # ignores second's version: rw pin -> second
        assert db.tracker.stats["marked"] > marked
        assert pin.out_conflict
        pin.commit()
        assert db.suspended_count() == 0
        assert not db._registry
        assert not any(db.locks.residue().values())


class TestRetireOnExit:
    @pytest.mark.parametrize("level", ["si", "s2pl"])
    def test_non_retaining_commit_leaves_no_graph_node(self, level):
        """Finalize releases a committed writer's locks before it leaves
        the registry; an SGT read in between finds it and draws it into
        the graph (a wr edge).  Its finalize must retire that node, or
        the SGT reader keeps an incoming edge and is never cleaned up."""
        db = make_db(eager=True)
        fill(db, "t", {"x": 0})
        writer = db.begin(level)
        writer.write("t", "x", 1)
        db.prepare_commit(writer)  # installed, not yet finalized
        db.locks.release_all(writer)  # finalize's first step
        reader = db.begin("sgt")
        assert reader.read("t", "x") == 1
        assert db.certifier.has_incoming(reader.id)
        db.finalize_commit(writer)
        reader.commit()
        assert db.suspended_count() == 0
        assert not db.certifier._nodes
        assert not db._registry


class TestThreadedHorizon:
    def test_horizon_stays_exact_under_threads(self):
        """Clients on four threads while a fifth compares the maintained
        horizon with the brute-force one under the txn latch; afterwards
        every retention structure drains."""
        db = make_db(eager=True)
        fill(db, "t", {key: 0 for key in range(8)})
        stop = threading.Event()
        mismatches = []

        def client(seed):
            rng = random.Random(seed)
            for _ in range(60):
                txn = db.begin(rng.choice(("ssi", "ssi-ro", "si", "sgt")))
                try:
                    for _ in range(3):
                        key = rng.randrange(8)
                        value = txn.read("t", key)
                        if rng.random() < 0.5:
                            txn.write("t", key, value + 1)
                    txn.commit()
                except TransactionAbortedError:
                    pass

        def checker():
            while not stop.is_set():
                with db._txn_latch:
                    maintained = db._oldest_active_read_ts()
                    expected = brute_force_horizon(db)
                if maintained != expected:
                    mismatches.append((maintained, expected))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [
                threading.Thread(target=client, args=(seed,))
                for seed in range(4)
            ]
            watcher = threading.Thread(target=checker)
            watcher.start()
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
            stop.set()
            watcher.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in clients + [watcher])
        assert not mismatches
        while db.cleanup_suspended():
            pass
        assert db.suspended_count() == 0
        assert not db._retired_writers
        assert not db._snapshots
        assert not db._registry
        assert not any(db.locks.residue().values())
