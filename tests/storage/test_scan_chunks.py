"""Chunked scan / keys / incremental vacuum (the scan kernel's storage side).

The chunked walk drops the table latch between batches, so these tests
pin down exactly what survives that: ordering, the resume-after-last-key
contract under concurrent mutation, and the incremental vacuum's
pause/resume accounting.
"""

from repro.mvcc.version import TOMBSTONE, Version
from repro.storage.table import Table


def make_table(n, page_size=4):
    table = Table("t", page_size=page_size)
    for key in range(n):
        table.load(key, f"v{key}")
    return table


class TestScanChunks:
    def test_yields_every_row_in_order(self):
        table = make_table(23)
        chunks = list(table.scan_chunks(None, None, chunk_size=5))
        assert [len(c) for c in chunks] == [5, 5, 5, 5, 3]
        flat = [key for chunk in chunks for key, _ in chunk]
        assert flat == list(range(23))

    def test_bounds_are_inclusive(self):
        table = make_table(20)
        flat = [
            key
            for chunk in table.scan_chunks(3, 11, chunk_size=4)
            for key, _ in chunk
        ]
        assert flat == list(range(3, 12))

    def test_default_chunk_size_is_tree_order(self):
        table = make_table(10, page_size=4)
        chunks = list(table.scan_chunks(None, None))
        assert [len(c) for c in chunks] == [4, 4, 2]

    def test_empty_table_yields_nothing(self):
        table = Table("t")
        assert list(table.scan_chunks(None, None, chunk_size=4)) == []

    def test_insert_ahead_of_cursor_is_seen(self):
        table = make_table(8)
        gen = table.scan_chunks(None, None, chunk_size=4)
        first = next(gen)
        assert [key for key, _ in first] == [0, 1, 2, 3]
        # Latch is not held here: a writer lands a key past the cursor...
        table.load(6.5, "new")
        rest = [key for chunk in gen for key, _ in chunk]
        # ...and the resume walk picks it up in order.
        assert rest == [4, 5, 6, 6.5, 7]

    def test_insert_behind_cursor_is_not_revisited(self):
        table = make_table(8)
        gen = table.scan_chunks(None, None, chunk_size=4)
        next(gen)
        table.load(1.5, "behind")
        rest = [key for chunk in gen for key, _ in chunk]
        assert rest == [4, 5, 6, 7]

    def test_chunk_collected_under_latch_then_released(self):
        """Each yielded chunk is a materialised list — mutating the tree
        between chunks never invalidates an in-flight batch."""
        table = make_table(12)
        seen = []
        for chunk in table.scan_chunks(None, None, chunk_size=3):
            seen.extend(key for key, _ in chunk)
            # Delete a key from a *future* chunk mid-iteration.
            if seen[-1] == 2:
                table._tree.delete(9)
        assert seen == [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11]


class TestKeysIterator:
    def test_keys_ordered_and_complete(self):
        table = make_table(17)
        assert list(table.keys(chunk_size=4)) == list(range(17))

    def test_keys_tolerates_concurrent_delete(self):
        """The old ``iter(list(...))`` snapshot held the latch for the
        whole copy; the chunked iterator must survive deletions between
        chunks without raising."""
        table = make_table(10)
        out = []
        for key in table.keys(chunk_size=2):
            out.append(key)
            if key == 3:
                table._tree.delete(7)
        assert out == [0, 1, 2, 3, 4, 5, 6, 8, 9]


class TestIncrementalVacuum:
    def fill_prunable(self, n):
        table = Table("t", page_size=4)
        for key in range(n):
            chain, _ = table.ensure_chain(key)
            chain.install(Version(f"old{key}", 1, 1))
            if key % 2:
                chain.install(Version(TOMBSTONE, 3, 2))
            else:
                chain.install(Version(f"new{key}", 5, 2))
        return table

    def test_chunked_matches_model(self):
        table = self.fill_prunable(30)
        removed = table.vacuum(horizon_ts=10, chunk_size=7)
        # Every key sheds its old version; the odd keys end in a sole
        # tombstone, which goes too — and the key with it.
        assert removed == 30 + 15
        assert list(table.keys()) == [k for k in range(30) if k % 2 == 0]
        for key in table.keys():
            assert table.chain(key).visible(10).value == f"new{key}"

    def test_on_pause_fires_between_holds_only(self):
        table = self.fill_prunable(20)
        pauses = []
        table.vacuum(
            horizon_ts=10, chunk_size=6, on_pause=lambda: pauses.append(1)
        )
        # 20 chains / 6 per hold = 4 holds, pauses strictly between them.
        assert len(pauses) == 3
