"""The oracle's phantom edges by bisect equal the brute-force loop.

``build_mvsg`` indexes the committed writers of each table as a sorted
key list and bisects every predicate scan's ``[lo, hi]``.  The reference
below is the loop it replaced — every written item of every table tested
against every scan — kept here as the test-only specification.  The two
must produce identical edge sets on any history, including open (None)
bounds and the composite ``(key,)`` / ``(key, SUPREMUM)`` bounds of
non-unique index scans.
"""

from __future__ import annotations

from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.sgt.history import HistoryRecorder
from repro.sgt.mvsg import MVSG, DependencyEdge, build_mvsg
from repro.storage.btree import SUPREMUM


def reference_mvsg(history: HistoryRecorder) -> MVSG:
    committed = {record.txn_id: record for record in history.committed()}
    graph = MVSG(nodes=set(committed))
    writers: dict = defaultdict(list)
    for record in committed.values():
        for op in record.writes():
            writers[(op.table, op.key)].append((record.commit_ts, record.txn_id))
    for versions in writers.values():
        versions.sort()
    by_version = {
        (table, key, commit_ts): txn_id
        for (table, key), versions in writers.items()
        for commit_ts, txn_id in versions
    }

    def add(src, dst, kind, item):
        if src != dst and src in committed and dst in committed:
            graph.edges.add(DependencyEdge(src, dst, kind, item))

    for (table, key), versions in writers.items():
        for (_ts1, txn1), (_ts2, txn2) in zip(versions, versions[1:]):
            add(txn1, txn2, "ww", (table, key))
    for record in committed.values():
        for op in record.reads():
            item = (op.table, op.key)
            if op.version_ts and op.version_ts > 0:
                creator = by_version.get((op.table, op.key, op.version_ts))
                if creator is not None:
                    add(creator, record.txn_id, "wr", item)
            observed_ts = op.version_ts if op.version_ts is not None else (
                record.begin_ts or 0
            )
            for commit_ts, writer_id in writers.get(item, ()):
                if commit_ts > observed_ts:
                    add(record.txn_id, writer_id, "rw", item)
        for op in record.scans():
            lo, hi = op.key
            read_ts = op.version_ts or record.begin_ts or 0
            for (table, key), versions in writers.items():
                if table != op.table:
                    continue
                if lo is not None and key < lo:
                    continue
                if hi is not None and hi < key:
                    continue
                for commit_ts, writer_id in versions:
                    if commit_ts > read_ts:
                        add(record.txn_id, writer_id, "rw", (table, (lo, hi)))
    return graph


KEYS = st.integers(0, 12)
#: composite index entries (index key, primary key)
ENTRIES = st.tuples(KEYS, st.integers(0, 3))
plain_bound = st.one_of(st.none(), KEYS)
#: non-unique index scan bounds: (lo,) .. (hi, SUPREMUM)
index_bounds = st.tuples(
    st.one_of(st.none(), KEYS.map(lambda k: (k,))),
    st.one_of(st.none(), KEYS.map(lambda k: (k, SUPREMUM))),
)
op = st.one_of(
    st.tuples(st.just("write"), st.just("t"), KEYS),
    st.tuples(st.just("write"), st.just("ix"), ENTRIES),
    st.tuples(st.just("read"), st.just("t"), KEYS),
    st.tuples(st.just("scan"), st.just("t"), st.tuples(plain_bound, plain_bound)),
    st.tuples(st.just("scan"), st.just("ix"), index_bounds),
)
txn = st.tuples(
    st.integers(0, 20),  # snapshot
    st.one_of(st.none(), st.integers(1, 20)),  # commit delay; None = aborted
    st.lists(op, max_size=6),
)


def make_history(txns) -> HistoryRecorder:
    history = HistoryRecorder()
    for txn_id, (begin, delay, ops) in enumerate(txns, start=1):
        history.on_begin(txn_id)
        history.on_snapshot(txn_id, begin)
        for kind, table, key in ops:
            if kind == "write":
                history.on_write(txn_id, table, key)
            elif kind == "read":
                history.on_read(txn_id, table, key, begin)
            else:
                history.on_scan(txn_id, table, key, (), begin)
        if delay is None:
            history.on_abort(txn_id)
        else:
            # distinct commit timestamps, as the engine's clock gives
            history.on_commit(txn_id, (begin + delay) * 100 + txn_id)
    return history


@given(st.lists(txn, max_size=12))
@settings(max_examples=300, deadline=None)
def test_bisected_phantom_edges_equal_the_brute_force_loop(txns):
    history = make_history(txns)
    assert build_mvsg(history).edges == reference_mvsg(history).edges
