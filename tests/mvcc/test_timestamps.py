"""Logical clock unit tests."""

import threading

from repro.mvcc.timestamps import LogicalClock


def test_starts_at_zero():
    clock = LogicalClock()
    assert clock.now() == 0


def test_next_is_strictly_increasing():
    clock = LogicalClock()
    stamps = [clock.next() for _ in range(100)]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == 100


def test_now_reflects_last_issued():
    clock = LogicalClock()
    issued = clock.next()
    assert clock.now() == issued
    issued2 = clock.next()
    assert clock.now() == issued2 > issued


def test_advance_to_jumps_forward_and_never_back():
    clock = LogicalClock()
    clock.advance_to(1_000)
    assert clock.now() == 1_000
    assert clock.next() == 1_001
    clock.advance_to(5)
    assert clock.now() == 1_001
    assert clock.next() == 1_002


def test_thread_safety_no_duplicates():
    clock = LogicalClock()
    results: list[int] = []
    lock = threading.Lock()

    def worker():
        local = [clock.next() for _ in range(500)]
        with lock:
            results.extend(local)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(results) == len(set(results)) == 4000


def test_repr_mentions_now():
    clock = LogicalClock()
    clock.next()
    assert "now=1" in repr(clock)
