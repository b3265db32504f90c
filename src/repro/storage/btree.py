"""A B+-tree with stable page identities.

The tree serves two purposes:

* ordered key storage with range walks; and
* a page structure, so the engine's Berkeley DB-style mode can lock and
  version *pages* instead of records for point reads and writes (paper
  Chapter 4.1-4.3; scans lock key ranges at either granularity).  Every
  node has a stable integer id; operations report which pages they
  touched, including parents updated by splits — this is what makes
  root-page contention appear under page-level locking, the effect the
  paper blames for Serializable SI's false positives in Figure 6.4.

Keys must be mutually comparable within one tree.  :data:`SUPREMUM` is a
sentinel greater than every key (paper Section 2.5.2: "the special
supremum key"): what :meth:`BPlusTree.first_key` returns for an empty
tree, and the tail of a composite upper bound such as a non-unique
index scan's ``(hi, SUPREMUM)``.

Deletion is lazy (keys are removed from leaves without rebalancing);
the engine only deletes keys during version garbage collection, so
under-full leaves are harmless here.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Any, Iterator


class _Supremum:
    """Sentinel ordered after every other key."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return other is SUPREMUM

    def __gt__(self, other: object) -> bool:
        return other is not SUPREMUM

    def __ge__(self, other: object) -> bool:
        return True

    def __repr__(self) -> str:
        return "<SUPREMUM>"


#: The key that sorts after every real key.
SUPREMUM = _Supremum()


class _Node:
    __slots__ = ("page_id", "keys", "children", "values", "next_leaf")

    def __init__(self, page_id: int, leaf: bool):
        self.page_id = page_id
        self.keys: list[Any] = []
        self.children: list[_Node] | None = None if leaf else []
        self.values: list[Any] | None = [] if leaf else None
        self.next_leaf: _Node | None = None

    @property
    def is_leaf(self) -> bool:
        return self.values is not None


class BPlusTree:
    """An in-memory B+-tree mapping orderable keys to arbitrary values.

    Args:
        order: maximum number of keys per node (>= 4).  Smaller orders
            produce more pages and therefore more page-lock contention —
            the knob the SmallBank page-granularity experiments turn.
    """

    def __init__(self, order: int = 64):
        if order < 4:
            raise ValueError("order must be >= 4")
        self.order = order
        self._page_ids = itertools.count(1)
        self._root: _Node = _Node(next(self._page_ids), leaf=True)
        self._size = 0

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: Any) -> bool:
        return self.get(key, default=_MISSING) is not _MISSING

    @property
    def root_page_id(self) -> int:
        return self._root.page_id

    def get(self, key: Any, default: Any = None) -> Any:
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        return default

    def leaf_page_of(self, key: Any) -> int:
        """Page id of the leaf that contains (or would contain) ``key``."""
        return self._find_leaf(key).page_id

    def path_page_ids(self, key: Any) -> list[int]:
        """Page ids from root to the leaf for ``key`` (root first)."""
        pages = []
        node = self._root
        while True:
            pages.append(node.page_id)
            if node.is_leaf:
                return pages
            node = node.children[self._child_index(node, key)]

    def first_key(self) -> Any:
        """Smallest stored key, else SUPREMUM for an empty tree."""
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        while node is not None:
            if node.keys:
                return node.keys[0]
            node = node.next_leaf
        return SUPREMUM

    def items(self) -> Iterator[tuple[Any, Any]]:
        yield from self.range(None, None)

    def keys(self) -> Iterator[Any]:
        for key, _value in self.items():
            yield key

    def range(
        self,
        lo: Any,
        hi: Any,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Iterator[tuple[Any, Any]]:
        """Yield (key, value) for keys in the interval [lo, hi], zipped
        from :meth:`leaf_slices`."""
        for keys, values in self.leaf_slices(lo, hi, include_lo, include_hi):
            yield from zip(keys, values)

    def leaf_slices(
        self,
        lo: Any,
        hi: Any,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Iterator[tuple[list[Any], list[Any]]]:
        """Yield each leaf's ``(keys[i:j], values[i:j])`` slice of [lo, hi].

        ``None`` bounds are open-ended.  ``i`` and ``j`` are bisected, so a
        leaf costs two list slices, not a step per key.  Leaves emptied by
        lazy deletion are stepped over; the walk stops at the first leaf
        holding a key past ``hi``.  Callers must not mutate the tree while
        iterating (the engine materialises scans before side effects).
        """
        if lo is None:
            node = self._root
            while not node.is_leaf:
                node = node.children[0]
            leaf, index = node, 0
        else:
            leaf = self._find_leaf(lo)
            index = (
                bisect.bisect_left(leaf.keys, lo)
                if include_lo
                else bisect.bisect_right(leaf.keys, lo)
            )
        cut = bisect.bisect_right if include_hi else bisect.bisect_left
        while leaf is not None:
            keys = leaf.keys
            end = len(keys) if hi is None else cut(keys, hi)
            if index < end:
                yield keys[index:end], leaf.values[index:end]
            if end < len(keys):
                return
            leaf = leaf.next_leaf
            index = 0

    # ------------------------------------------------------------ mutation

    def insert(self, key: Any, value: Any) -> list[int]:
        """Insert or overwrite ``key``.

        Returns the page ids modified: the leaf, plus every ancestor
        updated by split propagation (linking in a new page updates the
        parent — the paper notes "whenever a new page is inserted, some
        existing page is updated to link to the new page", Section 3.5).
        """
        path: list[_Node] = []
        node = self._root
        while not node.is_leaf:
            path.append(node)
            node = node.children[self._child_index(node, key)]

        index = bisect.bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            node.values[index] = value
            return [node.page_id]

        node.keys.insert(index, key)
        node.values.insert(index, value)
        self._size += 1
        touched = [node.page_id]

        child = node
        while len(child.keys) > self.order:
            sibling, separator = self._split(child)
            touched.append(sibling.page_id)
            if path:
                parent = path.pop()
                slot = self._child_index(parent, separator)
                parent.keys.insert(slot, separator)
                parent.children.insert(slot + 1, sibling)
                touched.append(parent.page_id)
                child = parent
            else:
                new_root = _Node(next(self._page_ids), leaf=False)
                new_root.keys = [separator]
                new_root.children = [child, sibling]
                self._root = new_root
                touched.append(new_root.page_id)
                break
        return touched

    def delete(self, key: Any) -> list[int]:
        """Remove ``key`` if present (lazy: no rebalancing).

        Returns the page ids modified ([] if the key was absent).
        """
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            return []
        del leaf.keys[index]
        del leaf.values[index]
        self._size -= 1
        return [leaf.page_id]

    # ----------------------------------------------------------- internals

    @staticmethod
    def _child_index(node: _Node, key: Any) -> int:
        return bisect.bisect_right(node.keys, key)

    def _find_leaf(self, key: Any) -> _Node:
        node = self._root
        while not node.is_leaf:
            node = node.children[self._child_index(node, key)]
        return node

    def _split(self, node: _Node) -> tuple[_Node, Any]:
        """Split an over-full node; return (new right sibling, separator)."""
        mid = len(node.keys) // 2
        sibling = _Node(next(self._page_ids), leaf=node.is_leaf)
        if node.is_leaf:
            separator = node.keys[mid]
            sibling.keys = node.keys[mid:]
            sibling.values = node.values[mid:]
            del node.keys[mid:]
            del node.values[mid:]
            sibling.next_leaf = node.next_leaf
            node.next_leaf = sibling
        else:
            separator = node.keys[mid]
            sibling.keys = node.keys[mid + 1:]
            sibling.children = node.children[mid + 1:]
            del node.keys[mid:]
            del node.children[mid + 1:]
        return sibling, separator

    def check_invariants(self) -> None:
        """Structural sanity checks, used by the property-based tests."""
        def walk(node: _Node, lo: Any, hi: Any, depth: int) -> int:
            assert node.keys == sorted(node.keys), "keys unsorted"
            for key in node.keys:
                if lo is not None:
                    assert not key < lo, "key below subtree bound"
                if hi is not None:
                    assert key < hi or key == hi, "key above subtree bound"
            if node.is_leaf:
                assert len(node.keys) == len(node.values)
                return depth
            assert len(node.children) == len(node.keys) + 1
            depths = set()
            bounds = [lo] + node.keys + [hi]
            for child, (clo, chi) in zip(
                node.children, zip(bounds[:-1], bounds[1:])
            ):
                depths.add(walk(child, clo, chi, depth + 1))
            assert len(depths) == 1, "unbalanced tree"
            return depths.pop()

        walk(self._root, None, None, 0)
        assert self._size == sum(1 for _ in self.items())


_MISSING = object()
