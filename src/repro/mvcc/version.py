"""Versioned data items.

Each data item is a :class:`VersionChain` of committed :class:`Version`
objects ordered by commit timestamp.  Deletes install *tombstone* versions
(paper Section 3.5) so that a predicate read interleaved after a delete
still observes a "newer version" and triggers rw-conflict detection.

Version order under snapshot isolation is simply commit-timestamp order:
the first-committer-wins rule guarantees that among two transactions that
produce versions of the same item, one commits before the other starts
(paper Section 2.5.1).

Storage layout: versions are kept oldest->newest with a parallel
``commit_ts`` array, so ``install`` is an O(1) append instead of an O(n)
front-insert, visibility is a tail check (the common "snapshot sees the
newest version" case) falling back to one ``bisect``, and "does a newer
version exist" — the first-committer-wins probe — is O(1).  The public
view is newest-first: iteration and :meth:`newer_than` yield the newest
version first.

Concurrency protocol: *writers* — ``install`` and ``prune`` — are
serialised by the owning table's latch.  *Readers* take no latch at
all.  That works because both lists live in a single
``_data = (versions, ts)`` tuple slot:

* ``install`` appends in place, version first, then timestamp.  Readers
  treat ``len(ts)`` as the authoritative length, so a half-finished append
  (version present, timestamp not yet) is simply invisible; and any
  version being installed concurrently carries a ``commit_ts`` newer than
  every live snapshot (snapshot assignment and version install are both
  under the commit latch), so it would be invisible anyway.
* ``prune`` never mutates the lists a reader may hold — it builds pruned
  copies and swaps the ``_data`` tuple in one reference store.  A reader
  that grabbed the old tuple keeps a consistent (merely stale) pair; the
  old in-place ``del list[:removed]`` could shift entries under a
  concurrent ``bisect`` and return a version misaligned with its
  timestamp.

Each chain also carries its item's SSI point-read state (Section 3.2's
SIREAD, kept where the read lands): ``readers``, the ids of transactions
that read it (a dict made with the chain, so two first readers never race
to make it), and ``writer``, the id of the last SIREAD-tracking writer
granted EXCLUSIVE on it.  Ids, never transactions: nothing retired is
pinned, and the engine decides which ids are live.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator


class _Tombstone:
    """Sentinel value stored by delete operations."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<TOMBSTONE>"


#: Singleton marking a deleted version.
TOMBSTONE = _Tombstone()


@dataclass(frozen=True, slots=True)
class Version:
    """One committed version of a data item.

    Attributes:
        value: the payload, or :data:`TOMBSTONE` for a delete.
        commit_ts: timestamp at which the creating transaction committed.
            Initial bulk-loaded data uses ``commit_ts == 0``.
        creator_id: transaction id of the creator (0 for bulk-loaded data).
    """

    value: Any
    commit_ts: int
    creator_id: int
    # Precomputed at construction: every read checks it, versions are
    # immutable, and a plain slot load beats a property call on the scan
    # hot path.
    is_tombstone: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "is_tombstone", self.value is TOMBSTONE)

    def __repr__(self) -> str:
        return f"Version(ts={self.commit_ts}, txn={self.creator_id}, value={self.value!r})"


class VersionChain:
    """All committed versions of one data item.

    The chain only ever contains *committed* versions: in-flight writes
    live in each transaction's private write set and are installed at
    commit, under the exclusive lock held since the write (this is the
    "most implementations of SI use locking during updates" behaviour of
    paper Section 2.5).
    """

    __slots__ = ("_data", "readers", "writer")

    def __init__(self, versions: Iterable[Version] | None = None):
        # Legacy constructor argument is newest-first; storage is ascending.
        ordered = list(versions or [])
        ordered.reverse()
        self._data: tuple[list[Version], list[int]] = (
            ordered,
            [version.commit_ts for version in ordered],
        )
        #: ids of the transactions holding a point SIREAD here (values unused)
        self.readers: dict[int, None] = {}
        #: id of the SIREAD-tracking writer last granted EXCLUSIVE here
        self.writer: int | None = None

    def install(self, version: Version) -> int:
        """Append a newly committed version; returns the new chain length
        (the engine's version-chain-length histogram observes it without
        re-walking the chain).

        Caller holds the table latch; commit timestamps are handed out
        under the engine's commit latch, so installs always arrive in
        increasing commit_ts order.  Append order (version, then ts)
        matters: latch-free readers use ``len(ts)`` as the length.
        """
        versions, ts = self._data
        if ts and version.commit_ts <= ts[-1]:
            raise ValueError(
                f"version install out of order: {version.commit_ts} "
                f"<= {ts[-1]}"
            )
        versions.append(version)
        ts.append(version.commit_ts)
        return len(ts)

    def visible(self, read_ts: int) -> Version | None:
        """Return the version a snapshot taken at ``read_ts`` sees.

        That is the newest version with ``commit_ts <= read_ts``; ``None``
        if the item did not exist at that time.  The caller is responsible
        for treating a visible tombstone as "not present".  Latch-free:
        the length is captured once and every index stays below it.
        """
        versions, ts = self._data
        length = len(ts)
        if not length:
            return None
        if ts[length - 1] <= read_ts:  # common case: sees the newest
            return versions[length - 1]
        index = bisect_right(ts, read_ts, 0, length)
        return versions[index - 1] if index else None

    def newer_than(self, read_ts: int) -> Iterator[Version]:
        """Yield every committed version ignored by a snapshot at ``read_ts``,
        newest first.

        These are exactly the versions whose existence signals a
        rw-dependency from the reader to the version creator (Fig 3.4,
        lines 8-9).
        """
        versions, ts = self._data
        length = len(ts)
        if not length or ts[length - 1] <= read_ts:
            return
        for index in range(
            length - 1, bisect_right(ts, read_ts, 0, length) - 1, -1
        ):
            yield versions[index]

    def has_newer(self, read_ts: int) -> bool:
        """O(1): does any committed version postdate a snapshot at
        ``read_ts``?  (The first-committer-wins probe, Section 2.5.1.)"""
        _versions, ts = self._data
        length = len(ts)
        return length > 0 and ts[length - 1] > read_ts

    def latest(self) -> Version | None:
        """Return the most recent committed version, if any."""
        versions, ts = self._data
        length = len(ts)
        return versions[length - 1] if length else None

    def prune(self, horizon_ts: int) -> int:
        """Garbage-collect versions no active snapshot can read.

        Keeps the newest version with ``commit_ts <= horizon_ts`` (it is
        still visible to a snapshot at ``horizon_ts``) and drops everything
        older.  A tombstone that becomes the oldest kept version is also
        dropped once nothing older survives, mirroring the paper's note
        that tombstones can be reclaimed when no transaction could read
        the last valid version (Section 3.5).

        Caller holds the table latch.  Copy-on-write: the surviving
        suffix is copied into fresh lists and published with one tuple
        store, so concurrent latch-free readers keep a consistent view.

        Returns the number of versions removed.
        """
        versions, ts = self._data
        visible_at_horizon = bisect_right(ts, horizon_ts)
        if visible_at_horizon == 0:
            return 0  # every version is newer than the horizon
        keep_from = visible_at_horizon - 1
        # Reclaim a leading tombstone: nothing older remains for it to
        # shadow, and every surviving snapshot sees "absent" either way.
        if versions[keep_from].is_tombstone and ts[keep_from] <= horizon_ts:
            keep_from += 1
        if not keep_from:
            return 0
        self._data = (versions[keep_from:], ts[keep_from:])
        return keep_from

    def __len__(self) -> int:
        return len(self._data[1])

    def __iter__(self) -> Iterator[Version]:
        versions, ts = self._data
        return reversed(versions[: len(ts)])

    def __repr__(self) -> str:
        versions, ts = self._data
        return f"VersionChain({list(reversed(versions[: len(ts)]))!r})"
