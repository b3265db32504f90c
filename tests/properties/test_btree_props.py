"""Property-based tests: the B+-tree behaves like a sorted dict."""

from hypothesis import given, settings, strategies as st

from repro.storage.btree import SUPREMUM, BPlusTree
from repro.storage.table import Table

keys = st.integers(min_value=-1000, max_value=1000)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), keys, st.integers()),
        st.tuples(st.just("delete"), keys, st.just(0)),
    ),
    max_size=200,
)

# A narrow key domain, filled in a drawn order and then thinned by
# deletes over a drawn stride, so some leaves keep one key and others
# none (deletion is lazy), then churned.
walk_keys = st.integers(min_value=0, max_value=60)
walk_ops = st.builds(
    lambda fill, start, stop, stride, churn: (
        [("insert", key, key) for key in fill]
        + [("delete", key, 0) for key in range(start, stop, stride)]
        + churn
    ),
    st.permutations(range(61)),
    walk_keys,
    walk_keys,
    st.integers(min_value=1, max_value=3),
    st.lists(
        st.tuples(st.sampled_from(["insert", "delete"]), walk_keys, st.integers()),
        max_size=20,
    ),
)
bounds = st.one_of(st.none(), walk_keys)


def build(ops, order):
    """A tree and its sorted-dict model after ``ops``."""
    tree = BPlusTree(order=order)
    model: dict[int, int] = {}
    for kind, key, value in ops:
        if kind == "insert":
            tree.insert(key, value)
            model[key] = value
        else:
            tree.delete(key)
            model.pop(key, None)
    return tree, model


def model_range(model, lo, hi, include_lo=True, include_hi=True):
    return [
        (key, value)
        for key, value in sorted(model.items())
        if (lo is None or key > lo or (include_lo and key == lo))
        and (hi is None or key < hi or (include_hi and key == hi))
    ]


@given(ops=ops, order=st.integers(min_value=4, max_value=9))
@settings(max_examples=150, deadline=None)
def test_matches_reference_dict(ops, order):
    tree, model = build(ops, order)
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
    ops=walk_ops,
    order=st.integers(min_value=4, max_value=9),
    lo=bounds,
    hi=bounds,
    include_lo=st.booleans(),
    include_hi=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_range_matches_filter(ops, order, lo, hi, include_lo, include_hi):
    tree, model = build(ops, order)
    expected = model_range(model, lo, hi, include_lo, include_hi)
    slices = list(tree.leaf_slices(lo, hi, include_lo, include_hi))
    assert all(keys and len(keys) == len(values) for keys, values in slices)
    walked = [pair for keys, values in slices for pair in zip(keys, values)]
    assert walked == expected
    assert list(tree.range(lo, hi, include_lo, include_hi)) == expected


@given(
    ops=walk_ops,
    page_size=st.integers(min_value=4, max_value=9),
    lo=bounds,
    hi=bounds,
    chunk_size=st.one_of(st.none(), st.integers(min_value=1, max_value=7)),
)
@settings(max_examples=300, deadline=None)
def test_scan_chunks_reassemble(ops, page_size, lo, hi, chunk_size):
    """``Table.scan_chunks`` chunks concatenate to the model's range, and
    every chunk but the last is full."""
    table = Table("t", page_size=page_size)
    model: dict[int, object] = {}
    for kind, key, _value in ops:
        if kind == "insert":
            model[key] = table.ensure_chain(key)[0]
        else:
            table.discard_empty(key)
            model.pop(key, None)
    chunks = list(table.scan_chunks(lo, hi, chunk_size))
    size = chunk_size or page_size
    assert all(len(chunk) == size for chunk in chunks[:-1])
    assert all(0 < len(chunk) <= size for chunk in chunks)
    got = [pair for chunk in chunks for pair in chunk]
    assert [key for key, _chain in got] == [key for key, _ in model_range(model, lo, hi)]
    assert all(chain is model[key] for key, chain in got)
