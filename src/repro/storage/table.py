"""Versioned tables.

A :class:`Table` maps orderable primary keys to
:class:`~repro.mvcc.version.VersionChain` objects through a B+-tree, and
answers ordered range walks; a ``dict`` beside it answers point lookups.
A key stays while any version (including a tombstone) of it survives,
so that concurrent snapshots keep seeing their versions; garbage
collection prunes chains against the oldest active snapshot.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator

from repro.engine.latches import make_latch
from repro.mvcc.version import Version, VersionChain
from repro.storage.btree import BPlusTree

#: rows :meth:`Table.scan_chunks` collects per table-latch hold; 0 = one
#: B+-tree leaf page (the tree's order).
SCAN_CHUNK_SIZE = 0

#: chains :meth:`Table.vacuum` examines per table-latch hold; the latch
#: is dropped between holds so wide scans are not stalled behind a
#: full-table GC pass.
VACUUM_CHUNK_SIZE = 256


class Table:
    """A named, versioned, ordered key/value table.

    The B+-tree (order, scans, :meth:`leaf_page_of`) and ``_chains``, a
    ``dict`` for point lookups, hold the same keys and chain objects and
    are mutated only under the table's latch (rank ``table``); tree walks
    take it too, as they race with node splits.  :meth:`chain` is one
    GIL-atomic ``dict.get``.  The latch is re-entrant and public: the
    engine holds it around each install at commit, which no prune may split.

    Args:
        name: table name, used in lock resources and error messages.
        page_size: B+-tree node order; only meaningful for page-granularity
            locking, where it controls contention (smaller pages -> fewer
            keys per page -> fewer false conflicts).
    """

    def __init__(self, name: str, page_size: int = 64):
        self.name = name
        self._tree = BPlusTree(order=page_size)
        self._chains: dict[Hashable, VersionChain] = {}
        self.latch = make_latch(f"table[{name}]")

    # ------------------------------------------------------------- chains

    def chain(self, key: Hashable) -> VersionChain | None:
        """The version chain for ``key``, or None if never written."""
        return self._chains.get(key)

    def ensure_chain(self, key: Hashable) -> tuple[VersionChain, list[int]]:
        """Get-or-create the chain for ``key``.

        Returns (chain, touched_page_ids); the page list is non-empty only
        when the key was newly added (page-granularity conflict modelling).
        """
        chain = self._chains.get(key)
        if chain is not None:
            return chain, []
        with self.latch:
            chain = self._chains.get(key)
            if chain is not None:
                return chain, []
            chain = VersionChain()
            touched = self._tree.insert(key, chain)
            self._chains[key] = chain
            return chain, touched

    def discard_empty(self, key: Hashable) -> None:
        """Unregister ``key`` if its chain holds no version — a
        page-granularity inserter's registration that never committed."""
        with self.latch:
            chain = self._chains.get(key)
            if chain is not None and not len(chain):
                self._tree.delete(key)
                del self._chains[key]

    def load(self, key: Hashable, value: Any) -> None:
        """Bulk-load initial data at timestamp 0 (visible to everyone)."""
        with self.latch:
            chain, _touched = self.ensure_chain(key)
            chain.install(Version(value=value, commit_ts=0, creator_id=0))

    # ------------------------------------------------------------ queries

    def first_key(self) -> Hashable:
        with self.latch:
            return self._tree.first_key()

    def scan_chains(
        self, lo: Hashable | None, hi: Hashable | None
    ) -> list[tuple[Hashable, VersionChain]]:
        """Materialised ordered scan of chains with keys in [lo, hi]."""
        with self.latch:
            return list(self._tree.range(lo, hi))

    def scan_chunks(
        self,
        lo: Hashable | None,
        hi: Hashable | None,
        chunk_size: int | None = None,
    ) -> Iterator[list[tuple[Hashable, VersionChain]]]:
        """Ordered scan of ``[lo, hi]`` in latch-bounded batches.

        Unlike :meth:`scan_chains`, the table latch is held only while one
        chunk of ``chunk_size`` pairs (default :data:`SCAN_CHUNK_SIZE`;
        only the last chunk may be shorter) is filled from B+-tree leaf
        slices, then dropped before the chunk is yielded — writers and
        other scans proceed between chunks.  The walk resumes strictly
        after the previous chunk's last key, so:

        * a key present for the whole scan is yielded exactly once;
        * keys added/removed concurrently may or may not appear — the same
          contract a single-latch-hold materialisation gives a *snapshot*
          reader, because chains added mid-scan only carry versions newer
          than any snapshot taken before the scan, and vacuum only removes
          chains invisible to every active snapshot.
        """
        if chunk_size is None or chunk_size <= 0:
            chunk_size = SCAN_CHUNK_SIZE or self._tree.order
        cursor, include_lo = lo, True
        while True:
            chunk: list[tuple[Hashable, VersionChain]] = []
            with self.latch:
                for keys, chains in self._tree.leaf_slices(
                    cursor, hi, include_lo=include_lo
                ):
                    room = chunk_size - len(chunk)
                    chunk += zip(keys[:room], chains[:room])
                    if len(chunk) >= chunk_size:
                        break
            if not chunk:
                return
            yield chunk
            if len(chunk) < chunk_size:
                return
            cursor, include_lo = chunk[-1][0], False

    def keys(self, chunk_size: int | None = None) -> Iterator[Hashable]:
        """Ordered key iterator in latch-bounded chunks (same resume-walk
        contract as :meth:`scan_chunks` — the latch is *not* held across
        the whole iteration)."""
        for chunk in self.scan_chunks(None, None, chunk_size):
            for key, _chain in chunk:
                yield key

    def leaf_page_of(self, key: Hashable) -> int:
        with self.latch:
            return self._tree.leaf_page_of(key)

    def __len__(self) -> int:
        return len(self._chains)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, keys={len(self)})"

    # ----------------------------------------------------------------- GC

    def vacuum(
        self,
        horizon_ts: int,
        chunk_size: int | None = None,
        on_pause: Any = None,
        live: Any = (),
    ) -> int:
        """Prune versions invisible to every snapshot at or after
        ``horizon_ts``; forget reader ids not in ``live`` (retired
        transactions); drop keys whose chains the prune emptied (not a
        page-granularity inserter's empty registration) unless a live
        reader is on the chain: its SIREAD must meet a re-insert.

        At most ``chunk_size`` chains (default
        :data:`VACUUM_CHUNK_SIZE`) are examined per latch hold and the
        latch is dropped between holds (resume walk, like
        :meth:`scan_chunks`) so concurrent scans are not stalled behind
        a full-table GC pass; ``on_pause`` is called at each drop (the
        engine counts them as ``vacuum_pause_events``).

        Returns the number of versions removed.
        """
        if chunk_size is None:
            chunk_size = VACUUM_CHUNK_SIZE
        removed = 0
        cursor, include_lo = None, True
        while True:
            examined = 0
            last = None
            with self.latch:
                dead_keys = []
                for key, chain in self._tree.range(
                    cursor, None, include_lo=include_lo
                ):
                    examined += 1
                    last = key
                    pruned = chain.prune(horizon_ts)
                    removed += pruned
                    readers = chain.readers
                    for reader in [r for r in list(readers) if r not in live]:
                        readers.pop(reader, None)
                    if pruned and not len(chain) and not readers:
                        dead_keys.append(key)
                    if examined >= chunk_size:
                        break
                for key in dead_keys:
                    self._tree.delete(key)
                    del self._chains[key]
            if examined < chunk_size or last is None:
                return removed
            cursor, include_lo = last, False
            if on_pause is not None:
                on_pause()
