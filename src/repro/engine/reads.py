"""The read path: Fig 3.4's modified read, Fig 3.6's scan, and the
SIREAD bookkeeping that reads and writes meet in (Fig 3.5).

:class:`ReadPath` is mixed into :class:`~repro.engine.database.Database`,
whose ``read``, ``get``, ``read_for_update`` and ``scan`` call straight
into it.  A point read places its SIREAD — an entry on the key's version
chain under RECORD granularity, a lock otherwise — then resolves the
visible version; a scan places one key range over [lo, hi], walks it and
resolves the whole batch with one CC-policy call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Hashable

from repro.engine.transaction import Transaction
from repro.engine.waits import Completion
from repro.errors import CompletionWaitRequired
from repro.locking.manager import range_resource
from repro.locking.modes import LockMode
from repro.mvcc.version import TOMBSTONE

__all__ = ["ReadPath"]

_MISSING = object()


class ReadPath:
    """Point reads, scans and SIREAD placement of the
    :class:`~repro.engine.database.Database` it is mixed into."""

    if TYPE_CHECKING:  # the rest comes from the Database it is mixed into
        def __getattr__(self, name: str) -> Any: ...

    # ------------------------------------------------------- point reads

    def _take_safe_snapshot(self, txn: Transaction) -> None:
        """A deferrable transaction's first read or scan, before any read
        lock: take a candidate snapshot, register it with the
        safe-snapshot monitor and raise
        :class:`~repro.errors.CompletionWaitRequired` until the verdict
        is safe — where PostgreSQL waits, when it first acquires its
        snapshot.  An unsafe verdict is permanent for that snapshot, so
        the retry takes a fresh one; a doom fires the verdict and the
        retry aborts in ``_check_op``."""
        verdict = txn._safe_event
        if txn.snapshot is not None:
            if not verdict.fired:
                raise CompletionWaitRequired(txn, verdict)
            if not txn.snapshot_safe:
                verdict = txn._safe_event = Completion(txn, self.locks)
                self._assign_snapshot(txn)
        else:
            self._assign_snapshot(txn)
        if txn.snapshot_safe is False:
            raise CompletionWaitRequired(txn, verdict)
        # Safe, or no monitor watches this level: nothing retains SIREADs
        # there, so every snapshot is trivially safe.
        txn.snapshot_safe = True
        txn._safe_event = None

    def _read_internal(
        self, txn: Transaction, table_name: str, key: Hashable
    ) -> tuple[Any, bool]:
        """Shared path of ``read`` and ``get``."""
        table = self.table(table_name)
        chain = table.chain(key)
        if txn._safe_event is not None:
            self._take_safe_snapshot(txn)
        self._acquire_read_locks(txn, table_name, key, chain)
        if chain is None:  # it may have been installed meanwhile
            chain = table.chain(key)
        self._ensure_snapshot(txn)
        return self._visible_value(txn, table_name, key, chain)

    def _visible_value(
        self,
        txn: Transaction,
        table_name: str,
        key: Hashable,
        chain,
        record: bool = True,
    ) -> tuple[Any, bool]:
        """Resolve what ``txn`` sees for key: own write set, then the
        snapshot (SI family) or the latest committed version (S2PL).
        The policy's ``on_read`` hook then runs its conflict detection
        (Fig 3.4 newer-version marking, SGT wr edges) — for SSI
        (``reads_newer_only``) only when the chain holds a newer version,
        as in :meth:`_resolve_scan_rows`.  Chain reads are latch-free."""
        txn.n_reads += 1
        if txn.write_set:  # read-only transactions skip the tuple build
            own = txn.write_set.get((table_name, key), _MISSING)
            if own is not _MISSING:
                if own is TOMBSTONE:
                    return None, False
                return own, True

        if chain is None:
            if record and self.history is not None:
                self.history.on_read(txn.id, table_name, key, None)
            return None, False

        policy = txn.policy
        if policy.uses_snapshots:
            version = txn.snapshot.visible(chain)
        else:
            version = chain.latest()
        if policy.tracks_reads:
            stamps = chain._data[1]  # chain.has_newer, inlined
            if not policy.reads_newer_only or (
                stamps and stamps[-1] > txn.snapshot.read_ts
            ):
                with self._tracker_latch:
                    policy.on_read(txn, table_name, key, chain, version)

        if record and self.history is not None:
            self.history.on_read(
                txn.id, table_name, key, version.commit_ts if version else None
            )
        if version is None or version.is_tombstone:
            return None, False
        return version.value, True

    # ------------------------------------------------------------ SIREADs

    def _acquire_read_locks(
        self, txn: Transaction, table_name: str, key: Hashable, chain
    ) -> None:
        """Read-side locking for a point read of one key."""
        mode = txn.policy.read_lock_mode(txn)
        if mode is None:
            return
        if mode is LockMode.SIREAD:
            # A SIREAD never waits (Section 3.2).  Nothing is added for a
            # re-read or a key a range of our own covers, and the key's
            # pending writer (Fig 3.4 lines 2-4) is reported unless it is
            # a re-read, whose writers met our SIREAD (Fig 3.5).
            if chain is not None and self._page_commit_ts is None:
                # RECORD: an entry on the chain, with no Resource, manager
                # call or latch.  The reader stores its id, *then* reads
                # chain.writer; a writer publishes itself at its grant,
                # *then* reads the readers: one always sees the other.  It
                # counts one acquire, as a grant would (so does a read our
                # own EXCLUSIVE lock covers, adding nothing).
                txn_id = txn.id
                sireads = txn.sireads
                locks = self.locks
                if chain not in sireads:
                    locks.stats["acquires"] += 1
                    if chain.writer != txn_id:
                        # Only a scan or an escalation gives a
                        # transaction a range of its own.
                        if not (
                            (txn.n_scans or self._siread_budget is not None)
                            and locks.holds_range_over(txn, table_name, key)
                        ):
                            chain.readers[txn_id] = None
                            if not sireads:
                                locks.chain_readers[txn_id] = txn
                            sireads[chain] = (table_name, key)
                        writer_id = chain.writer
                        if writer_id is not None:
                            # Active = still holding the EXCLUSIVE lock
                            # it was published by (released before exit).
                            writer = self._active.get(writer_id)
                            if writer is not None:
                                self.dispatch_rw_edge(reader=txn, writer=writer)
            else:
                result = self.locks.acquire(
                    txn, self._rec_resource(table_name, key), mode, key
                )
                for lock in result.detection_conflicts:
                    self.dispatch_rw_edge(reader=txn, writer=lock.owner)
            if self._siread_budget is not None:
                self.locks.escalate(self._siread_budget)
            return
        # A blocking read mode (S2PL's SHARED) takes no record lock where
        # a range of its own covers the key: a writer meets the range.
        if not self.locks.holds_range_over(txn, table_name, key, mode):
            self._acquire(txn, self._rec_resource(table_name, key), mode)

    def _report_readers(self, txn: Transaction, conflicts: list, chain=None) -> None:
        """Fig 3.5/3.7: each SIREAD holder a write met — a lock, or a
        registered id on the record's ``chain`` (an unregistered one is
        retired, and pruned) — signals a potential rw edge holder -> txn;
        the writer's policy applies its concurrency filter (or drops the
        edge).  An id escalation folded into a range stays on the chain
        and counts only if the write did not meet that range."""
        owners = [lock.owner for lock in conflicts]
        met = []
        readers = chain.readers if chain is not None else ()
        registry = self._registry
        for reader_id in list(readers):
            reader = registry.get(reader_id)
            if reader is None:
                readers.pop(reader_id, None)
            elif reader is not txn and (chain in reader.sireads or reader not in owners):
                met.append(reader)
        met += owners
        if met:
            on_write_conflict = txn.policy.on_write_conflict
            with self._tracker_latch:
                for reader in met:
                    on_write_conflict(writer=txn, reader=reader)

    # --------------------------------------------------------------- scans

    def _walk_range(
        self,
        txn: Transaction,
        table,
        table_name: str,
        lo: Hashable | None,
        hi: Hashable | None,
    ) -> list:
        """The one walk of every scan: the (key, chain) pairs of [lo, hi].

        A locking reader places the range [lo, hi] before the walk, so
        every writer is met from one side; the writers in flight at
        placement are then settled (:meth:`_meet_writers` — an S2PL
        reader that waited walks again) and a SIREAD reader escalates."""
        read_mode = txn.policy.read_lock_mode(txn)
        # A SHARED range held before this scan is never withdrawn.
        held = read_mode is LockMode.SHARED and self.locks.holds(
            txn, range_resource(table_name, lo, hi)
        )
        while True:
            if read_mode is not None:
                writers = self.locks.acquire_range(txn, table_name, lo, hi, read_mode)
            # The table latch is held per chunk, not across [lo, hi].
            chains: list = []
            for chunk in table.scan_chunks(lo, hi):
                chains += chunk
            if read_mode is None:
                return chains
            if self._meet_writers(txn, table_name, lo, hi, writers, read_mode, held):
                break
        if read_mode is LockMode.SIREAD:
            self.locks.escalate(self._siread_budget)
        return chains

    def _meet_writers(
        self,
        txn: Transaction,
        table_name: str,
        lo: Hashable | None,
        hi: Hashable | None,
        writers: list,
        read_mode: LockMode,
        held: bool,
    ) -> bool:
        """Settle the writers a freshly placed range [lo, hi] found in
        flight inside it.  A SIREAD reader dispatches their rw edges.  A
        SHARED reader waits for each through a blocking SHARED record
        lock, having first withdrawn the range unless it held it before
        this scan: a reader that held its range while waiting would block
        those writers' next keys and deadlock against them.  Returns
        False when the reader waited — it then places the range and
        reads again."""
        if read_mode is LockMode.SIREAD:
            for lock in writers:
                self.dispatch_rw_edge(reader=txn, writer=lock.owner)
            return True
        if not writers:
            return True
        if not held:
            self.locks.release_range(txn, table_name, lo, hi)
        for lock in writers:
            self._acquire(txn, lock.resource, LockMode.SHARED)
        return False

    def _resolve_scan_rows(
        self, txn: Transaction, table_name: str, chains: list
    ) -> list[tuple[Hashable, Any]]:
        """Batch visibility resolution for a materialised scan: the
        visible (key, value) rows, before the write-set overlay.

        One pass with the per-row branches of :meth:`_visible_value`
        hoisted out of the loop: the policy flags, write-set presence,
        history handle and snapshot read_ts are read once, and the
        snapshot's ts-array tail check is inlined (the one-slot memo is
        useless on a scan — every chain is distinct).  Semantics are
        those of a point read per row: own uncommitted writes
        short-circuit before any detection or history (a tombstone
        skips the row entirely), every other row records its read and
        feeds conflict detection — the collected (key, chain, version)
        triples go to the policy's ``on_read_batch`` in one
        tracker-latch section.  A ``reads_newer_only`` policy (SSI) is
        handed only the rows whose tail check found a version newer than
        the snapshot; a version installed after that check belongs to a
        writer whose EXCLUSIVE grant met the scan's locks, and the edge
        was dispatched there."""
        results: list[tuple[Hashable, Any]] = []
        policy = txn.policy
        uses_snapshots = policy.uses_snapshots
        write_set = txn.write_set
        history = self.history
        txn_id = txn.id
        handed: list | None = [] if policy.tracks_reads else None
        every_row = handed is not None and not (
            uses_snapshots and policy.reads_newer_only
        )
        if uses_snapshots:
            read_ts = txn.snapshot.read_ts
        for key, chain in chains:
            if write_set:
                own = write_set.get((table_name, key), _MISSING)
                if own is not _MISSING:
                    if own is not TOMBSTONE:
                        results.append((key, own))
                    continue
            if uses_snapshots:
                # Inlined tail fast path of Snapshot.visible (latch-free
                # read of the chain's (versions, ts) tuple).
                versions, stamps = chain._data
                length = len(stamps)
                if length and stamps[length - 1] <= read_ts:
                    version = versions[length - 1]
                    if every_row:
                        handed.append((key, chain, version))
                else:
                    # The tail is newer than the snapshot (or the chain
                    # is still empty).
                    version = chain.visible(read_ts)
                    if handed is not None and (length or every_row):
                        handed.append((key, chain, version))
            else:
                version = chain.latest()
                if handed is not None:
                    handed.append((key, chain, version))
            if history is not None:
                history.on_read(
                    txn_id, table_name, key,
                    version.commit_ts if version else None,
                )
            if version is not None and not version.is_tombstone:
                results.append((key, version.value))
        txn.n_reads += len(chains)
        if handed:
            with self._tracker_latch:
                policy.on_read_batch(txn, table_name, handed)
        return results

    def _overlay_write_set(
        self,
        txn: Transaction,
        table_name: str,
        lo: Hashable | None,
        hi: Hashable | None,
        results: list[tuple[Hashable, Any]],
    ) -> list[tuple[Hashable, Any]]:
        """Apply the transaction's own pending writes to a scan result."""
        own = {
            key: value
            for (tname, key), value in txn.write_set.items()
            if tname == table_name
            and (lo is None or not key < lo)
            and (hi is None or not hi < key)
        }
        if not own:
            return results
        merged = {key: value for key, value in results}
        for key, value in own.items():
            if value is TOMBSTONE:
                merged.pop(key, None)
            else:
                merged[key] = value
        return sorted(merged.items())

    def _record_scan(
        self, txn: Transaction, table_name: str, span: tuple, rows: list
    ) -> None:
        """History record of a predicate read: the keys of its resolved
        ``rows``.  A reader without a snapshot (S2PL) read the latest
        committed state under its locks, so its read point is the commit
        clock's high-water mark once the scan is done."""
        if self.history is not None:
            read_ts = txn.read_ts
            if read_ts is None:
                read_ts = self.clock.now()
            seen = tuple(key for key, _value in rows)
            self.history.on_scan(txn.id, table_name, span, seen, read_ts)
