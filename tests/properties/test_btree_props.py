"""Property-based tests: the B+-tree behaves like a sorted dict."""

from hypothesis import given, settings, strategies as st

from repro.storage.btree import SUPREMUM, BPlusTree

keys = st.integers(min_value=-1000, max_value=1000)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), keys, st.integers()),
        st.tuples(st.just("delete"), keys, st.just(0)),
    ),
    max_size=200,
)


@given(ops=ops, order=st.integers(min_value=4, max_value=9))
@settings(max_examples=150, deadline=None)
def test_matches_reference_dict(ops, order):
    tree = BPlusTree(order=order)
    model: dict[int, int] = {}
    for kind, key, value in ops:
        if kind == "insert":
            tree.insert(key, value)
            model[key] = value
        else:
            tree.delete(key)
            model.pop(key, None)
    assert len(tree) == len(model)
    assert list(tree.items()) == sorted(model.items())
    for key in model:
        assert tree.get(key) == model[key]
    tree.check_invariants()


@given(data=st.lists(keys, unique=True, min_size=1, max_size=120))
@settings(max_examples=150, deadline=None)
def test_first_key_matches_sorted_order(data):
    tree = BPlusTree(order=5)
    for key in data:
        tree.insert(key, None)
    ordered = sorted(data)
    assert tree.first_key() == ordered[0]
    for key in ordered[:-1]:
        tree.delete(key)
    assert tree.first_key() == ordered[-1]
    tree.delete(ordered[-1])
    assert tree.first_key() is SUPREMUM


@given(
    data=st.lists(keys, unique=True, min_size=1, max_size=80),
    lo=keys,
    hi=keys,
)
@settings(max_examples=150, deadline=None)
def test_range_matches_filter(data, lo, hi):
    tree = BPlusTree(order=5)
    for key in data:
        tree.insert(key, key)
    got = [k for k, _v in tree.range(lo, hi)]
    assert got == [k for k in sorted(data) if lo <= k <= hi]
