"""Locking subsystem.

Implements the lock modes, compatibility matrix, FIFO wait queues and
deadlock detection (over waits read off the queues) used by every
isolation level, plus the paper's additions: the non-blocking SIREAD
mode, SIREAD retention after commit, and SIREAD->EXCLUSIVE upgrades
(Sections 3.2, 3.7.3, 4.3).
"""

from repro.locking.modes import LockMode, compatible, is_siread
from repro.locking.manager import (
    AcquireResult,
    Lock,
    LockManager,
    LockRequest,
    Resource,
    record_resource,
    range_resource,
    page_resource,
)

__all__ = [
    "LockMode",
    "compatible",
    "is_siread",
    "AcquireResult",
    "Lock",
    "LockManager",
    "LockRequest",
    "Resource",
    "record_resource",
    "range_resource",
    "page_resource",
]
