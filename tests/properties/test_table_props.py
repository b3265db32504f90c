"""Property-based tests: a table's point map and B+-tree stay in step.

:class:`~repro.storage.table.Table` answers point lookups from a ``dict``
beside the tree that serves order and scans.  Every mutation — a chain
registered by ``ensure_chain``, versions installed, tombstones reclaimed
by ``vacuum`` at the horizon (in chunks or whole), an empty registration
discarded — must leave both holding the same keys mapped to the same
chain objects.
"""

from hypothesis import given, settings, strategies as st

from repro.mvcc.version import TOMBSTONE, Version
from repro.storage.table import Table

keys = st.integers(min_value=0, max_value=40)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("ensure"), keys),
        st.tuples(st.just("install"), keys),
        st.tuples(st.just("delete"), keys),
        st.tuples(st.just("discard"), keys),
        st.tuples(st.just("vacuum"), st.sampled_from([None, 2, 5])),
    ),
    max_size=120,
)


def assert_in_step(table: Table) -> None:
    pairs = list(table._tree.items())
    assert [key for key, _chain in pairs] == sorted(table._chains)
    for key, chain in pairs:
        assert table._chains[key] is chain
        assert table.chain(key) is chain
    assert len(table) == len(pairs)
    table._tree.check_invariants()


@given(steps=steps, order=st.integers(min_value=4, max_value=8))
@settings(max_examples=150, deadline=None)
def test_map_and_tree_hold_the_same_chains(steps, order):
    table = Table("t", page_size=order)
    clock = 0
    for kind, arg in steps:
        if kind == "ensure":
            chain, _touched = table.ensure_chain(arg)
            assert table.chain(arg) is chain
            assert table.ensure_chain(arg) == (chain, [])
        elif kind in ("install", "delete"):
            clock += 1
            with table.latch:
                chain = table.ensure_chain(arg)[0]
                chain.install(Version(
                    value=TOMBSTONE if kind == "delete" else clock,
                    commit_ts=clock, creator_id=clock,
                ))
        elif kind == "discard":
            had_versions = len(table.chain(arg) or ())
            table.discard_empty(arg)
            assert (table.chain(arg) is not None) == bool(had_versions)
        else:
            empty_before = {
                key for key, chain in table._chains.items() if not len(chain)
            }
            table.vacuum(clock, chunk_size=arg)
            # Pruning reclaims tombstones at the horizon, never a
            # registration that had no version to prune.
            assert empty_before <= set(table._chains)
            assert all(
                not chain.latest().is_tombstone
                for key, chain in table._chains.items()
                if key not in empty_before
            )
        assert_in_step(table)
