"""B+-tree unit tests."""

import pytest

from repro.storage.btree import SUPREMUM, BPlusTree


def test_empty_tree():
    tree = BPlusTree(order=4)
    assert len(tree) == 0
    assert tree.get(1) is None
    assert 1 not in tree
    assert tree.first_key() is SUPREMUM
    assert list(tree.items()) == []


def test_insert_get_overwrite():
    tree = BPlusTree(order=4)
    tree.insert(1, "a")
    tree.insert(2, "b")
    assert tree.get(1) == "a"
    tree.insert(1, "A")
    assert tree.get(1) == "A"
    assert len(tree) == 2


def test_order_must_be_at_least_4():
    with pytest.raises(ValueError):
        BPlusTree(order=3)


def test_sorted_iteration_after_random_inserts():
    import random

    rng = random.Random(1)
    keys = rng.sample(range(10_000), 500)
    tree = BPlusTree(order=6)
    for key in keys:
        tree.insert(key, key * 2)
    assert [k for k, _v in tree.items()] == sorted(keys)
    tree.check_invariants()


def test_range_scan_bounds():
    tree = BPlusTree(order=4)
    for key in range(0, 100, 10):
        tree.insert(key, key)
    assert [k for k, _ in tree.range(15, 45)] == [20, 30, 40]
    assert [k for k, _ in tree.range(20, 40)] == [20, 30, 40]
    assert [k for k, _ in tree.range(20, 40, include_lo=False)] == [30, 40]
    assert [k for k, _ in tree.range(20, 40, include_hi=False)] == [20, 30]
    assert [k for k, _ in tree.range(None, 25)] == [0, 10, 20]
    assert [k for k, _ in tree.range(55, None)] == [60, 70, 80, 90]
    assert [k for k, _ in tree.range(41, 49)] == []


def test_delete_lazy():
    tree = BPlusTree(order=4)
    for key in range(20):
        tree.insert(key, key)
    assert tree.delete(7) != []
    assert tree.get(7) is None
    assert len(tree) == 19
    assert tree.delete(7) == []  # already gone
    tree.check_invariants()


def test_insert_reports_touched_pages_on_split():
    tree = BPlusTree(order=4)
    touched_lists = [tree.insert(key, key) for key in range(50)]
    # Non-splitting inserts touch one page; splits touch more (the new
    # sibling and the updated parent).
    assert any(len(touched) == 1 for touched in touched_lists)
    assert any(len(touched) >= 3 for touched in touched_lists)


def test_leaf_page_of_stable_for_present_keys():
    tree = BPlusTree(order=4)
    for key in range(100):
        tree.insert(key, key)
    for key in range(100):
        page = tree.leaf_page_of(key)
        assert page == tree.leaf_page_of(key)  # deterministic
    # Neighbouring keys mostly share pages.
    pages = {tree.leaf_page_of(key) for key in range(100)}
    assert 10 <= len(pages) <= 60


def test_path_page_ids_root_first():
    tree = BPlusTree(order=4)
    for key in range(200):
        tree.insert(key, key)
    path = tree.path_page_ids(100)
    assert path[0] == tree.root_page_id
    assert len(path) >= 2


def test_supremum_ordering():
    assert SUPREMUM > 10**18
    assert not (SUPREMUM < 5)
    assert SUPREMUM >= SUPREMUM
    assert SUPREMUM <= SUPREMUM
    assert 5 < SUPREMUM
    assert (3, "z") < SUPREMUM


def test_tuple_keys():
    tree = BPlusTree(order=4)
    for w in range(3):
        for d in range(4):
            tree.insert((w, d), w * 10 + d)
    assert tree.get((1, 2)) == 12
    assert [k for k, _ in tree.range((1, 0), (1, 99))] == [(1, d) for d in range(4)]
    tree.check_invariants()


def test_string_keys():
    tree = BPlusTree(order=4)
    words = ["pear", "apple", "fig", "lime", "date", "kiwi"]
    for word in words:
        tree.insert(word, len(word))
    assert [k for k, _ in tree.items()] == sorted(words)
