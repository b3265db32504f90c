"""Strict two-phase locking (Section 2.2).

Reads take blocking SHARED locks (a scan holds one SHARED key range on
its predicate, so phantoms are impossible) and see the latest committed
version rather than a snapshot.  No dependency tracking, no
certification: serializability comes entirely from the lock table, so
every hook except the read-lock mode keeps its kernel default.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cc.policy import CCPolicy
from repro.engine.isolation import IsolationLevel
from repro.locking.modes import LockMode

if TYPE_CHECKING:
    from repro.engine.transaction import Transaction


class S2PLPolicy(CCPolicy):
    """The lock-based serializable baseline."""

    level = IsolationLevel.SERIALIZABLE_2PL
    uses_snapshots = False

    def read_lock_mode(self, txn: "Transaction") -> Optional[LockMode]:
        return LockMode.SHARED
