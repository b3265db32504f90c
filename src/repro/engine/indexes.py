"""Transactional secondary indexes.

A secondary index is an ordinary ordered table maintained automatically
by the engine inside the same transaction as the base-table write, so it
inherits the full concurrency-control treatment: index entries are
versioned, index range scans take SIREAD/SHARED key-range locks
(phantom-safe predicate reads over the *index* order), and index
maintenance writes
participate in first-committer-wins and dangerous-structure detection.

Two shapes:

* non-unique (default): entries are ``(index_key, primary_key) -> primary_key``
  — several rows may share an index key;
* unique: entries are ``index_key -> primary_key`` and inserting a
  duplicate raises :class:`~repro.errors.DuplicateKeyError`, giving
  transactional unique constraints.

This is the machinery TPC-C's customer-by-last-name lookup (paper
Section 2.8.1's ``C.WHERE`` clause) needs from a real engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable


#: extracts the index key from (primary_key, row_value)
KeyFunc = Callable[[Hashable, Any], Hashable]


@dataclass(frozen=True, slots=True)
class IndexDef:
    """Definition of one secondary index.

    Attributes:
        name: index name; also the name of its backing table.
        table: the indexed base table.
        key_func: maps (primary_key, row value) to the index key; rows
            mapping to ``None`` are excluded (partial index).
        unique: enforce at most one row per index key.
    """

    name: str
    table: str
    key_func: KeyFunc
    unique: bool = False

    def entry_for(self, primary_key: Hashable, value: Any) -> Hashable | None:
        """The backing-table key for a row, or None if excluded."""
        index_key = self.key_func(primary_key, value)
        if index_key is None:
            return None
        if self.unique:
            return index_key
        return (index_key, primary_key)
