"""Lock mode compatibility matrix tests (Section 3.2 requirements)."""

import pytest

from repro.locking.modes import LockMode, blocks, compatible, is_siread

S, X, SIREAD = LockMode.SHARED, LockMode.EXCLUSIVE, LockMode.SIREAD
II = LockMode.INSERT_INTENTION


@pytest.mark.parametrize(
    "held,requested,expected",
    [
        (S, S, True),
        (S, X, False),
        (X, S, False),
        (X, X, False),
        # SIREAD never blocks and is never blocked — the defining
        # property of the new mode.
        (SIREAD, S, True),
        (SIREAD, X, True),
        (SIREAD, SIREAD, True),
        (S, SIREAD, True),
        (X, SIREAD, True),
        # Insert intention: two writers inside one range coexist; an
        # S2PL scan's SHARED range blocks them; SIREAD only detects.
        (II, II, True),
        (II, SIREAD, True),
        (SIREAD, II, True),
        (S, II, False),
        (II, S, False),
        (X, II, False),
        (II, X, False),
    ],
)
def test_compatibility(held, requested, expected):
    assert compatible(held, requested) is expected
    assert blocks(held, requested) is (not expected)


def test_is_siread():
    assert is_siread(SIREAD)
    assert not is_siread(S)
    assert not is_siread(X)
