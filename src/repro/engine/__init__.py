"""The transactional storage engine.

Public entry point::

    from repro import Database, IsolationLevel

    db = Database()
    db.create_table("accounts")
    txn = db.begin(IsolationLevel.SERIALIZABLE_SSI)
    txn.write("accounts", "alice", 100)
    txn.commit()

Transactions expose blocking operations (lock waits park the calling
thread); the discrete-event simulator uses the same engine through its
non-blocking primitives (:class:`~repro.errors.CompletionWaitRequired`).
"""

from repro.engine.config import EngineConfig, LockGranularity, DeadlockMode
from repro.engine.isolation import IsolationLevel
from repro.engine.database import Database
from repro.engine.transaction import Transaction, TransactionStatus

__all__ = [
    "Database",
    "Transaction",
    "TransactionStatus",
    "IsolationLevel",
    "EngineConfig",
    "LockGranularity",
    "DeadlockMode",
]
