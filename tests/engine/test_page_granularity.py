"""Page-granularity (Berkeley DB-style) engine tests (Sections 4.1-4.3).

At PAGE granularity, point locks name B+-tree leaf pages: unrelated
rows that share a page conflict, which is the source of the
false-positive unsafe aborts the paper measures in Figure 6.4.  Scans
protect their predicate with the same one key range as at RECORD
granularity.
"""

import pytest

from repro import Database, EngineConfig
from repro.engine.config import LockGranularity
from repro.errors import LockWaitRequired, TransactionAbortedError, UnsafeError
from repro.locking.manager import range_resource
from repro.locking.modes import LockMode
from repro.sgt.checker import check_serializable

from tests.conftest import commit_outcomes, fill
from tests.engine.test_scan_ranges import edge_recorded


@pytest.fixture
def pdb():
    return Database(
        EngineConfig.berkeleydb_style(page_size=4, record_history=True)
    )


def test_config_helper_sets_bdb_profile():
    config = EngineConfig.berkeleydb_style()
    assert config.granularity is LockGranularity.PAGE
    assert not config.precise_conflicts
    assert not config.eager_cleanup


def test_same_page_rows_share_one_lock(pdb):
    fill(pdb, "t", {i: i for i in range(4)})  # all on one leaf
    txn = pdb.begin("s2pl")
    txn.read("t", 0)
    txn.read("t", 3)
    assert len(pdb.locks.locks_held_by(txn)) == 1  # one page lock
    txn.commit()


def test_false_sharing_blocks_unrelated_writers(pdb):
    fill(pdb, "t", {i: i for i in range(4)})
    t1 = pdb.begin("si")
    t2 = pdb.begin("si")
    t2.read("t", 3)  # fixes t2's snapshot before t1 commits
    t1.write("t", 0, "x")
    with pytest.raises(LockWaitRequired):
        pdb.write(t2, "t", 3, "y")  # different row, same page
    t1.commit()
    with pytest.raises(TransactionAbortedError):
        # page version is newer than t2's snapshot: FCW at page level
        pdb.write(t2, "t", 3, "y")


def test_distinct_pages_do_not_conflict(pdb):
    fill(pdb, "t", {i: i for i in range(64)})  # many leaves
    t1 = pdb.begin("si")
    t2 = pdb.begin("si")
    first = pdb.table("t").first_key()
    last = max(pdb.table("t").keys())
    assert pdb.table("t").leaf_page_of(first) != pdb.table("t").leaf_page_of(last)
    t1.write("t", first, "x")
    t2.write("t", last, "y")
    assert commit_outcomes(t1, t2) == ["commit", "commit"]


def _reference_page_groups():
    """Key groups per leaf page in a page_size=4 layout of keys 0..15."""
    from repro.storage.table import Table

    reference = Table("ref", page_size=4)
    for key in range(16):
        reference.load(key, key)
    groups: dict[int, list[int]] = {}
    for key in range(16):
        groups.setdefault(reference.leaf_page_of(key), []).append(key)
    return [keys for keys in groups.values() if len(keys) >= 2][:2]


def _cross_page_skew(db):
    """Disjoint rows arranged so that, at page granularity only, the two
    transactions form a write-skew pattern: each reads a row on the page
    the other writes.  Returns the outcome list."""
    fill(db, "t", {i: i for i in range(16)})
    page_a, page_b = _reference_page_groups()
    results = []
    t1 = db.begin("ssi")
    t2 = db.begin("ssi")
    try:
        t1.read("t", page_a[0])
        t2.read("t", page_b[0])
        t1.write("t", page_b[1], "a")  # writes the page t2 read
        t2.write("t", page_a[1], "b")  # writes the page t1 read
    except TransactionAbortedError as error:
        results.append(error.reason)
    results.extend(commit_outcomes(t1, t2))
    return results


def test_page_level_false_positive_unsafe(pdb):
    """Disjoint rows that are conflict-free at record granularity produce
    a dangerous-structure abort at page granularity — the Fig 6.4
    phenomenon in miniature."""
    assert "unsafe" in _cross_page_skew(pdb)

    # The identical schedule at record granularity commits everything.
    rdb = Database(EngineConfig(record_history=True))
    assert _cross_page_skew(rdb) == ["commit", "commit"]


def test_page_locking_prevents_phantom_skew_without_gap_locks(pdb):
    """Section 3.5: page-level coverage subsumes next-key locking.  At
    PAGE granularity, inserts into a shared page exclusive-lock it, so
    the second insert *waits* — driven through the non-blocking engine
    primitives here."""
    fill(pdb, "t", {1: "a"})
    t1 = pdb.begin("ssi")
    t2 = pdb.begin("ssi")
    results = []
    count1 = len(t1.scan("t"))
    count2 = len(t2.scan("t"))
    pdb.insert(t1, "t", 2, f"x{count1}")
    with pytest.raises(LockWaitRequired):
        # second insert blocks on the page lock (BDB-style coarse locks)
        pdb.insert(t2, "t", 3, f"y{count2}")
    try:
        pdb.commit(t1)
        results.append("commit")
    except TransactionAbortedError as error:
        results.append(error.reason)
    # t2 retries after the grant: page-level FCW (or unsafe) kills it.
    try:
        pdb.insert(t2, "t", 3, f"y{count2}")
        pdb.commit(t2)
        results.append("commit")
    except TransactionAbortedError as error:
        results.append(error.reason)
    assert results.count("commit") <= 1
    assert check_serializable(pdb.history).serializable


def test_serializable_under_page_granularity_randomized(pdb):
    from repro.sim.scheduler import SimConfig, Simulator
    from repro.workloads.smallbank import make_smallbank

    workload = make_smallbank(customers=30)
    workload.setup(pdb)
    Simulator(pdb, workload, "ssi", 6, SimConfig(duration=0.1, warmup=0.0)).run()
    assert check_serializable(pdb.history).serializable


# ------------------------------------------------------------------ scans
#
# A scan places the same one key range at PAGE granularity as at RECORD;
# a writer's record lock, taken after its page lock, is what meets it.

SCAN_LEVELS = ("ssi", "sgt", "s2pl")
#: sequential loads leave leaves half full: pages [0, 2], [4, 6], ...
EVEN_ROWS = {key: key for key in range(0, 32, 2)}


@pytest.mark.parametrize("level", SCAN_LEVELS)
def test_scan_holds_one_range_and_no_page_lock(pdb, level):
    fill(pdb, "t", EVEN_ROWS)
    reader = pdb.begin(level)
    assert len(reader.scan("t", 4, 26)) == 12
    held = [lock.resource for lock in pdb.locks.locks_held_by(reader)]
    assert held == [range_resource("t", 4, 26)]
    reader.commit()


@pytest.mark.parametrize("level", ("ssi", "sgt"))
def test_read_covered_by_own_range_leaves_its_page_unlocked(pdb, level):
    """A point read inside the reader's own range takes no page SIREAD,
    so a later read of a page neighbour outside the range must still
    lock the page."""
    fill(pdb, "t", EVEN_ROWS)
    table = pdb.table("t")
    assert table.leaf_page_of(0) == table.leaf_page_of(2)
    reader = pdb.begin(level)
    writer = pdb.begin(level)
    writer.read("t", 30)
    reader.scan("t", 0, 0)
    reader.read("t", 0)
    reader.read("t", 2)
    pdb.write(writer, "t", 2, "x")
    assert edge_recorded(pdb, level, reader, writer)


@pytest.mark.parametrize("level", ("ssi", "sgt"))
def test_cross_page_phantom_write_skew_aborts_one(pdb, level):
    """Each transaction counts the rows of one page's key range and
    inserts into the other's, on a page it never read: a write skew that
    only the key ranges can see."""
    fill(pdb, "t", EVEN_ROWS)
    table = pdb.table("t")
    assert table.leaf_page_of(1) != table.leaf_page_of(21)
    t1 = pdb.begin(level)
    t2 = pdb.begin(level)
    outcomes = []
    try:
        count1 = len(t1.scan("t", 0, 2))
        count2 = len(t2.scan("t", 20, 22))
        t1.insert("t", 21, count1)
        t2.insert("t", 1, count2)
    except TransactionAbortedError as error:
        outcomes.append(error.reason)
    outcomes.extend(commit_outcomes(t1, t2))
    assert outcomes.count("commit") == 1
    assert "unsafe" in outcomes
    assert check_serializable(pdb.history).serializable


def test_cross_page_phantom_insert_waits_on_s2pl_range(pdb):
    fill(pdb, "t", EVEN_ROWS)
    t1 = pdb.begin("s2pl")
    t2 = pdb.begin("s2pl")
    t1.scan("t", 0, 2)
    t2.scan("t", 20, 22)
    with pytest.raises(LockWaitRequired) as waited:
        pdb.insert(t1, "t", 21, "x")
    request = waited.value.request
    assert request.resource == range_resource("t", 20, 22)
    assert request.mode is LockMode.INSERT_INTENTION
    t2.commit()
    pdb.insert(t1, "t", 21, "x")  # the range left with its holder
    t1.commit()
    assert check_serializable(pdb.history).serializable


@pytest.mark.parametrize("level", SCAN_LEVELS)
def test_scan_workload_serializable_under_page_granularity(pdb, level):
    from repro.sim.scheduler import SimConfig, Simulator
    from repro.workloads.sibench import make_sibench

    workload = make_sibench(items=30)
    workload.setup(pdb)
    Simulator(pdb, workload, level, 6, SimConfig(duration=0.1, warmup=0.0)).run()
    assert pdb.stats["scans"] > 0
    assert check_serializable(pdb.history).serializable


def _registered(table, key) -> bool:
    """Is ``key`` in the table — in the tree and the point map alike?"""
    in_tree = key in table._tree
    assert in_tree == (table.chain(key) is not None)
    return in_tree


@pytest.mark.parametrize("op", ["insert", "write"])
def test_vacuum_keeps_an_inflight_inserters_key(pdb, op):
    """A PAGE inserter registers its key (an empty chain) and X-locks
    the pages that registration touched; vacuum must leave that chain
    alone, or the commit re-inserts the key into pages it never locked."""
    fill(pdb, "t", {i: i for i in range(8)})
    table = pdb.table("t")
    inserter = pdb.begin("ssi")
    getattr(inserter, op)("t", 100, "new")
    assert _registered(table, 100)
    pdb.vacuum()
    assert _registered(table, 100)
    chain = table.chain(100)
    inserter.commit()
    assert table.chain(100) is chain
    assert pdb.begin("si").read("t", 100) == "new"
    table._tree.check_invariants()


@pytest.mark.parametrize("op", ["insert", "write"])
def test_aborted_inserter_leaves_no_registration(pdb, op):
    fill(pdb, "t", {i: i for i in range(8)})
    table = pdb.table("t")
    inserter = pdb.begin("ssi")
    getattr(inserter, op)("t", 100, "new")
    inserter.abort()
    assert not _registered(table, 100)
    assert len(table) == 8
    table._tree.check_invariants()
    # A later inserter registers the key afresh and commits it.
    again = pdb.begin("ssi")
    again.insert("t", 100, "again")
    again.commit()
    assert pdb.begin("si").read("t", 100) == "again"


def test_doomed_inserter_leaves_no_registration(pdb):
    """The abort a doom turns into at the next operation unregisters the
    key too, as does one of a key whose chain holds versions: it keeps
    them."""
    fill(pdb, "t", {i: i for i in range(8)})
    table = pdb.table("t")
    inserter = pdb.begin("ssi")
    inserter.write("t", 3, "x")  # an existing key: its chain stays
    inserter.insert("t", 100, "new")
    pdb.doom(inserter, UnsafeError("unsafe", txn_id=inserter.id))
    with pytest.raises(UnsafeError):
        inserter.read("t", 0)
    assert not _registered(table, 100)
    assert _registered(table, 3)
    assert pdb.begin("si").read("t", 3) == 3
