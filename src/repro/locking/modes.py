"""Lock modes and the compatibility matrix.

Modes:

* ``SHARED`` / ``EXCLUSIVE`` — the classic S2PL modes.
* ``SIREAD`` — the paper's new mode (Section 3.2): records that an SI
  transaction read a version of an item.  SIREAD never blocks and is never
  blocked; the *co-presence* of SIREAD and EXCLUSIVE locks on an item is
  the signal of an rw-antidependency.  (In the InnoDB prototype this was
  represented by reusing the "intention shared" mode on rows, Section 4.6;
  here it is a first-class mode.)

Predicate locks are not separate modes either: the paper's gap locks
(Section 2.5.2) protect the predicate a scan evaluated, and here that
predicate is one key-range *resource* (see :mod:`repro.locking.manager`)
held in the scan's read mode, so the same mode matrix applies to it.
"""

from __future__ import annotations

import enum


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"
    SIREAD = "SIREAD"
    #: A writer's claim on a key inside a key range (InnoDB's "insert
    #: intention", Section 2.5.2): two writers inside one range do not
    #: block each other and a SIREAD range does not block them, but an
    #: S2PL scan's SHARED range does.
    INSERT_INTENTION = "II"

    def __repr__(self) -> str:  # compact in queue dumps
        return self.value


#: Pairs of modes that may be granted simultaneously to different owners.
#: SIREAD is compatible with everything, including EXCLUSIVE: readers do
#: not block writers and vice versa; the overlap is detected, not blocked.
_COMPATIBLE: frozenset[tuple[LockMode, LockMode]] = frozenset(
    {
        (LockMode.SHARED, LockMode.SHARED),
        (LockMode.SHARED, LockMode.SIREAD),
        (LockMode.SIREAD, LockMode.SHARED),
        (LockMode.SIREAD, LockMode.SIREAD),
        (LockMode.SIREAD, LockMode.EXCLUSIVE),
        (LockMode.EXCLUSIVE, LockMode.SIREAD),
        (LockMode.INSERT_INTENTION, LockMode.INSERT_INTENTION),
        (LockMode.INSERT_INTENTION, LockMode.SIREAD),
        (LockMode.SIREAD, LockMode.INSERT_INTENTION),
    }
)


# ------------------------------------------------------------------ bitmasks
#
# The lock-table hot paths test mode sets against each other millions of
# times per run, and Enum hashing dominates when those tests go through
# set operations.  Each mode therefore carries a bit, and the compatibility
# matrix is pre-folded into a per-mode ``incompat_mask`` so "does any held
# mode block this request" is a single integer AND against a summary mask.
# The matrix above stays the source of truth; the masks are derived.

for _index, _mode in enumerate(LockMode):
    _mode.index = _index
    _mode.bit = 1 << _index

for _mode in LockMode:
    _mode.incompat_mask = 0
    for _other in LockMode:
        if (_other, _mode) not in _COMPATIBLE:
            _mode.incompat_mask |= _other.bit


def compatible(held: LockMode, requested: LockMode) -> bool:
    """True if ``requested`` can be granted while ``held`` is granted
    to a different transaction."""
    return (held, requested) in _COMPATIBLE


def is_siread(mode: LockMode) -> bool:
    return mode is LockMode.SIREAD


def blocks(held: LockMode, requested: LockMode) -> bool:
    """True if a holder of ``held`` delays a request for ``requested``."""
    return not compatible(held, requested)
