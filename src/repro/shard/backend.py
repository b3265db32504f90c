"""Shard backends: the uniform surface the coordinator drives.

Both backends address transactions by the coordinator's *global id*
(gtid) — the shard-local :class:`~repro.engine.transaction.Transaction`
or wire session is an implementation detail behind it.

:class:`LocalShard` embeds a :class:`~repro.engine.database.Database` in
the coordinator's process.  Engine behaviour is unchanged — in
particular :class:`~repro.errors.CompletionWaitRequired` (a lock wait)
propagates to the caller, so the exhaustive interleaving driver can
single-step a sharded deployment exactly like a monolithic one.

:class:`RemoteShard` speaks the wire protocol to one forked shard
server over a single :class:`~repro.client.PipelinedClient` link: every
frame carries ``txn: gtid`` (the server multiplexes all distributed
transactions on the connection) and the ``*_begin`` methods submit
without waiting, which is what lets the coordinator fan PREPARE out to
all shards in one round trip instead of one per shard.

Data operations are not spelled per backend: the coordinator invokes
``call(gtid, op, *args)`` with an op of
:data:`repro.server.protocol.WIRE_OPS` and its positional arguments,
which a :class:`RemoteShard` forwards as that frame and a
:class:`LocalShard` applies to its database through the method the
table names.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.client import PipelinedClient, ServerError
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.engine.isolation import IsolationLevel
from repro.errors import (
    CompletionWaitRequired,
    TransactionAbortedError,
    TransactionStateError,
)
from repro.server.protocol import WIRE_OPS
from repro.sgt.history import OpRecord, TxnRecord

__all__ = ["LocalShard", "RemoteShard"]

#: summaries land in a vote table; votes use these reply waiters
Waiter = Callable[[], Any]


class LocalShard:
    """One in-process shard: a private engine plus the gtid routing
    table.  ``config`` defaults to history-recording so the merged-MVSG
    oracle works out of the box."""

    def __init__(self, config: EngineConfig | None = None,
                 db: Database | None = None) -> None:
        self.db = db if db is not None else Database(
            config or EngineConfig(record_history=True)
        )
        self._txns: dict[int, Any] = {}
        #: local txn id -> gtid, kept for history relabelling.
        self._gtids: dict[int, int] = {}

    # ------------------------------------------------------------ admin

    def create_table(self, name: str) -> None:
        self.db.create_table(name)

    def load(self, table: str, rows) -> None:
        self.db.load(table, rows)

    def sweep_deadlocks(self) -> list:
        return self.db.sweep_deadlocks()

    def metrics(self) -> dict:
        return self.db.metrics.snapshot()

    def close(self) -> None:
        pass

    # ------------------------------------------------------- txn ops

    def begin(self, gtid: int, isolation: IsolationLevel | str = "ssi",
              read_only: bool = False) -> int:
        txn = self.db.begin(isolation, read_only=read_only, global_id=gtid)
        self._txns[gtid] = txn
        self._gtids[txn.id] = gtid
        return txn.id

    def _run(self, gtid: int, fn):
        txn = self._txns.get(gtid)
        if txn is None:
            raise TransactionStateError(
                f"shard holds no transaction for global id {gtid}"
            )
        waiting = False
        try:
            return fn(txn)
        except CompletionWaitRequired:
            waiting = True  # the retry needs the routing entry
            raise
        finally:
            # Any other outcome that ends the transaction — commit, abort,
            # engine-raised abort error — retires the routing entry.
            if not waiting and not txn.is_active:
                self._txns.pop(gtid, None)

    def call(self, gtid: int, op: str, *args: Any) -> Any:
        """Run data operation ``op`` on the shard-local part of global
        transaction ``gtid``."""
        method = getattr(self.db, WIRE_OPS[op].method)
        return self._run(gtid, lambda txn: method(txn, *args))

    # -------------------------------------------------------- commit

    def commit(self, gtid: int) -> None:
        self._run(gtid, self.db.commit)

    def abort(self, gtid: int, reason: str | None = None) -> None:
        txn = self._txns.pop(gtid, None)
        if txn is not None and txn.is_active:
            self.db.abort(txn, reason=reason)

    def prepare_begin(self, gtid: int) -> Waiter:
        return lambda: self._run(gtid, self.db.prepare_for_commit)

    def commit_prepared_begin(self, gtid: int, import_in: bool,
                              import_out: bool) -> Waiter:
        def apply(txn):
            self.db.commit_prepared(
                txn, import_in=import_in, import_out=import_out
            )
            self.db.finalize_commit(txn)

        return lambda: self._run(gtid, apply)

    # ------------------------------------------------------- oracles

    def describe_abort(self, local_id: int) -> dict | None:
        """The trace-derived abort explanation for a local transaction,
        with the ``gtids`` relabelling table — same payload the wire
        server attaches to error replies (None without tracing)."""
        if self.db.trace is None:
            return None
        try:
            return self.db.explain_abort(local_id).payload(self._gtids)
        except Exception:  # noqa: BLE001 - diagnostics must not mask the abort
            return None

    def history_records(self) -> tuple[list[TxnRecord], dict[int, int]]:
        """(records, local-id -> gtid) for the merged-MVSG oracle."""
        history = self.db.history
        if history is None:
            raise TransactionStateError(
                "history recording is disabled on this shard"
            )
        return history.snapshot_records(), dict(self._gtids)

    def audit(self) -> dict[str, int]:
        """Residual engine state after quiesce (:meth:`Database.audit`)."""
        return self.db.audit()


class RemoteShard:
    """One shard server reached over a pipelined wire link."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.link = PipelinedClient(host, port)

    # ------------------------------------------------------------ admin

    def create_table(self, name: str) -> None:
        self.link.create_table(name)

    def load(self, table: str, rows) -> None:
        self.link.load(table, rows)

    def sweep_deadlocks(self) -> list:
        # The shard server's suspended sessions run their own sweeps.
        return []

    def metrics(self) -> dict:
        return self.link.do("metrics")

    def close(self) -> None:
        self.link.close()

    # ------------------------------------------------------- txn ops

    def begin(self, gtid: int, isolation: IsolationLevel | str = "ssi",
              read_only: bool = False) -> int:
        return self.link.do(
            "begin", IsolationLevel.parse(isolation).value, read_only,
            txn=gtid,
        )

    def call(self, gtid: int, op: str, *args: Any) -> Any:
        """Forward data operation ``op`` for global transaction ``gtid``."""
        return self.link.do(op, *args, txn=gtid)

    # -------------------------------------------------------- commit

    def commit(self, gtid: int) -> None:
        self.link.do("commit", txn=gtid)

    def abort(self, gtid: int, reason: str | None = None) -> None:
        try:
            self.link.do("abort", txn=gtid)
        except (ServerError, TransactionStateError, TransactionAbortedError):
            # Already retired server-side (the abort error that triggered
            # this rollback retired the session); nothing left to do.
            pass

    def prepare_begin(self, gtid: int) -> Waiter:
        return self.link.start("prepare", txn=gtid)

    def commit_prepared_begin(self, gtid: int, import_in: bool,
                              import_out: bool) -> Waiter:
        return self.link.start(
            "commit_prepared", import_in, import_out, txn=gtid
        )

    # ------------------------------------------------------- oracles

    def describe_abort(self, local_id: int) -> dict | None:
        # Remote abort errors already carry the server's explanation.
        return None

    def history_records(self) -> tuple[list[TxnRecord], dict[int, int]]:
        records: list[TxnRecord] = []
        gtids: dict[int, int] = {}
        for txn in self.link.do("dump_history"):
            ops = [OpRecord(*op) for op in txn["ops"]]
            records.append(TxnRecord(
                txn["id"], txn["begin_ts"], txn["commit_ts"], txn["status"], ops,
            ))
            if txn["gtid"] is not None:
                gtids[txn["id"]] = txn["gtid"]
        return records, gtids

    def audit(self) -> dict[str, int]:
        return self.link.do("audit")
