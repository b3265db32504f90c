"""Property-based tests for the chunked scan kernel.

The kernel drops the table latch between chunks, so the load-bearing
property is **snapshot stability under interference**: a scan whose
materialisation is interleaved with complete writer transactions
(insert / overwrite / delete, each fully committed between chunks) must
return exactly what a single-latch-hold scan of the same snapshot
returns — the pre-scan state, because every interfering write commits
after the reader's read timestamp.

A second family checks the kernel against a sorted-dict model on
quiescent data, across bounds — a reference that shares no code with
the engine.  Tables use 4- to 6-key pages, so scans cross leaves and
chunks end mid-leaf.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.errors import (
    DuplicateKeyError,
    KeyNotFoundError,
    TransactionAbortedError,
)

KEYS = st.integers(min_value=0, max_value=40)
VALUES = st.integers(min_value=0, max_value=99)

initial_rows = st.dictionaries(KEYS, VALUES, max_size=25)
write_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),  # injection point (chunk #)
        st.sampled_from(["write", "insert", "delete"]),
        KEYS,
        VALUES,
    ),
    max_size=8,
)
PAGE_SIZES = st.integers(min_value=4, max_value=6)
TENS = st.integers(min_value=0, max_value=10)  # index keys: value // 10


def build_db(initial, page_size):
    db = Database(EngineConfig())
    db.create_table("t", page_size=page_size)
    db.load("t", initial.items())
    return db


def chunked(chunk_size):
    """Scans inside this block collect ``chunk_size`` rows per latch hold."""
    return mock.patch("repro.storage.table.SCAN_CHUNK_SIZE", chunk_size)


def model_range(initial, lo, hi):
    """The oracle: what a scan of [lo, hi] over ``initial`` returns."""
    return [
        (key, value)
        for key, value in sorted(initial.items())
        if (lo is None or key >= lo) and (hi is None or key <= hi)
    ]


def fire_writer(db, kind, key, value):
    """One complete interfering transaction: begin, mutate, commit —
    application errors (duplicate insert, missing delete) roll back."""
    writer = db.begin("si")
    try:
        if kind == "write":
            db.write(writer, "t", key, value)
        elif kind == "insert":
            db.insert(writer, "t", key, value)
        else:
            db.delete(writer, "t", key)
        writer.commit()
    except (DuplicateKeyError, KeyNotFoundError):
        db.abort(writer)
    except TransactionAbortedError:
        pass


@given(
    initial=initial_rows,
    writes=write_ops,
    lo=st.one_of(st.none(), KEYS),
    hi=st.one_of(st.none(), KEYS),
    chunk_size=st.integers(min_value=1, max_value=6),
    level=st.sampled_from(["si", "ssi"]),
    page_size=PAGE_SIZES,
)
@settings(max_examples=120, deadline=None)
def test_interfered_chunked_scan_equals_snapshot(
    initial, writes, lo, hi, chunk_size, level, page_size
):
    db = build_db(initial, page_size)
    table = db.table("t")
    reader = db.begin(level)
    db.get(reader, "t", -1)  # pin the snapshot before any writer runs

    by_point: dict[int, list] = {}
    for point, kind, key, value in writes:
        by_point.setdefault(point, []).append((kind, key, value))
    fired: set[int] = set()
    real_chunks = table.scan_chunks

    def patched(c_lo, c_hi, c_size=None):
        for number, chunk in enumerate(real_chunks(c_lo, c_hi, c_size)):
            yield chunk
            # Table latch is dropped here: run this point's writers as
            # full transactions (acquire, commit, release).
            if number not in fired:
                fired.add(number)
                for kind, key, value in by_point.get(number, ()):
                    fire_writer(db, kind, key, value)

    table.scan_chunks = patched
    with chunked(chunk_size):
        got = db.scan(reader, "t", lo, hi)
    assert got == model_range(initial, lo, hi), (
        "chunked scan with interleaved writers diverged from the "
        "single-latch-hold snapshot result"
    )
    db.abort(reader)


@given(
    initial=initial_rows,
    lo=st.one_of(st.none(), KEYS),
    hi=st.one_of(st.none(), KEYS),
    chunk_size=st.integers(min_value=1, max_value=6),
    level=st.sampled_from(["si", "ssi", "s2pl"]),
    page_size=PAGE_SIZES,
)
@settings(max_examples=120, deadline=None)
def test_scan_matches_model(initial, lo, hi, chunk_size, level, page_size):
    db = build_db(initial, page_size)
    txn = db.begin(level)
    with chunked(chunk_size):
        got = db.scan(txn, "t", lo, hi)
    db.abort(txn)
    assert got == model_range(initial, lo, hi)


@given(
    initial=initial_rows,
    lo=st.one_of(st.none(), TENS),
    hi=st.one_of(st.none(), TENS),
    level=st.sampled_from(["si", "ssi", "s2pl"]),
)
@settings(max_examples=120, deadline=None)
def test_index_scan_matches_model(initial, lo, hi, level):
    """A non-unique index scan reads the composite range ``[(lo,),
    (hi, SUPREMUM)]`` over an index table of 4-key pages."""
    db = Database(EngineConfig(page_size=4))
    db.create_table("t")
    db.load("t", initial.items())
    db.create_index("by_tens", "t", lambda _key, value: value // 10)
    txn = db.begin(level)
    got = db.index_scan(txn, "by_tens", lo, hi)
    db.abort(txn)
    assert got == sorted(
        (value // 10, key)
        for key, value in initial.items()
        if (lo is None or value // 10 >= lo) and (hi is None or value // 10 <= hi)
    )
