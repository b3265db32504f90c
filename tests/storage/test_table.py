"""Versioned table unit tests."""

from repro.mvcc.version import TOMBSTONE, Version
from repro.storage.btree import SUPREMUM
from repro.storage.table import Table


def test_load_visible_to_everyone():
    table = Table("t")
    table.load("k", 42)
    assert table.chain("k").visible(0).value == 42


def test_ensure_chain_reports_new_pages_once():
    table = Table("t", page_size=4)
    chain, touched = table.ensure_chain(1)
    assert touched  # key newly added
    chain2, touched2 = table.ensure_chain(1)
    assert chain2 is chain
    assert touched2 == []


def test_first_key():
    table = Table("t")
    assert table.first_key() is SUPREMUM
    for key in (5, 1, 9):
        table.load(key, key)
    assert table.first_key() == 1


def test_scan_chains_materialised():
    table = Table("t")
    for key in range(10):
        table.load(key, key)
    rows = table.scan_chains(3, 6)
    assert [key for key, _ in rows] == [3, 4, 5, 6]


def test_vacuum_drops_old_versions_and_empty_chains():
    table = Table("t")
    chain, _ = table.ensure_chain("x")
    chain.install(Version("v1", 1, 1))
    chain.install(Version("v2", 5, 2))
    chain.install(Version(TOMBSTONE, 8, 3))
    removed = table.vacuum(horizon_ts=10)
    # v1, v2 and the now-sole tombstone all go; the key disappears.
    assert removed == 3
    assert table.chain("x") is None
    assert len(table) == 0


def test_vacuum_keeps_versions_visible_to_horizon():
    table = Table("t")
    chain, _ = table.ensure_chain("x")
    chain.install(Version("v1", 1, 1))
    chain.install(Version("v2", 5, 2))
    removed = table.vacuum(horizon_ts=3)
    assert removed == 0
    assert table.chain("x").visible(3).value == "v1"


def test_keys_never_written_are_absent():
    table = Table("t")
    assert table.chain("missing") is None
