"""The asyncio wire-protocol server.

One TCP connection = one :class:`repro.session.Session` on the event
loop (see :mod:`repro.session`).  Each request frame is dispatched as a
session invocation, whose future :meth:`ReproServer._dispatch` awaits.
When the session is idle the invocation runs inline on the loop, and
the future is settled before the await: engine calls never wait on
another transaction, so the loop is held only while the engine works (a
durable commit's log flush included).  An invocation that must wait — a
lock request, a deferrable safe-snapshot verdict — suspends instead, and
its retry is scheduled back onto the loop when the wait resolves; a
wait's lock timeout and periodic deadlock sweeps are loop timers.  While
a session is suspended neither an OS thread nor the event loop is held:
1024 connections cost 1024 suspended sessions, not 1024 threads.

Bare frames keep the original request/response discipline (one
outstanding op per connection).  A frame carrying an ``"id"`` opts into
**pipelining**: the reply echoes the id and may arrive out of order;
at most :data:`MAX_INBOX` id-tagged frames are in flight per connection —
beyond that the server stops reading the socket, which is TCP
backpressure.  A frame carrying ``"txn": <gtid>`` is addressed to a
server-wide session keyed by that coordinator-assigned global id
instead of the connection's own session, so one pipelined connection
multiplexes many distributed transactions (the coordinator<->shard
links).  The operations, their request fields and their reply fields
are :data:`repro.server.protocol.WIRE_OPS`; this module parses and
answers through that table and spells no frame of its own.  One frame
carries one request, and every frame is JSON
(:mod:`repro.server.protocol`).

Abort responses carry the machine-readable ``reason`` and, when the
database has tracing enabled, the ``explanation`` payload built from
:meth:`Database.explain_abort` (pivot triple and rw-antidependency list
rendered JSON-safe, plus a local-id -> global-id table for the
coordinator to relabel).
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.engine.database import Database
from repro.errors import TransactionAbortedError
from repro.server.protocol import (
    FrameError,
    ProtocolError,
    encode_frame,
    read_frame_async,
    request_args,
    success_reply,
)
from repro.session import Session, SessionScheduler

__all__ = ["MAX_INBOX", "ReproServer"]

#: bound on in-flight pipelined (id-tagged) frames per connection; once
#: full the reader coroutine stops pulling from the socket.
MAX_INBOX = 32


class ReproServer:
    """Serve a :class:`Database` over TCP.

    Every session runs on the event loop, so there is no thread pool to
    size: ``workers`` is accepted for existing callers and ignored.
    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).
    """

    def __init__(
        self,
        db: Database,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int | None = None,
    ) -> None:
        self.db = db
        self.host = host
        self.port = port
        self.scheduler = SessionScheduler(db)
        self._server: asyncio.AbstractServer | None = None
        self._connections = 0
        #: distributed transactions: coordinator global id -> the
        #: server-wide session running that transaction's local part.
        #: Like everything here, touched only on the event loop.
        self._dtxns: dict[int, Session] = {}
        #: local txn id -> global id, kept for the server's lifetime so
        #: history dumps and abort explanations can be relabelled (shard
        #: processes are per-run; the map is bounded by run size).
        self._gtids: dict[int, int] = {}
        #: the ops the server answers itself rather than through a session
        self._admin = {
            "ping": self._ping,
            "create_table": db.create_table,
            "load": self._load,
            "metrics": db.metrics.snapshot,
            "dump_history": self._dump_history,
            "audit": self._audit,
        }
        db.metrics.register_gauge("server_connections", lambda: self._connections)
        db.metrics.register_gauge("server_dtxns", lambda: len(self._dtxns))

    # ------------------------------------------------------- lifecycle

    async def start(self, backlog: int = 2048) -> None:
        # A large accept backlog: the connection-count benchmark opens
        # ~1024 sockets at once and must not lose SYNs to a 100-deep
        # default queue.
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, backlog=backlog
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        leftovers = list(self._dtxns.values())
        self._dtxns.clear()
        for session in leftovers:
            await self._close_session(session)
        self.scheduler.shutdown()

    @property
    def connections(self) -> int:
        return self._connections

    # ------------------------------------------------------ connection

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = self.scheduler.session()
        self._connections += 1
        inbox = asyncio.Semaphore(MAX_INBOX)
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()

        async def respond(reply: dict[str, Any]) -> None:
            async with write_lock:
                writer.write(encode_frame(reply))
                await writer.drain()

        try:
            while True:
                try:
                    frame = await read_frame_async(reader)
                except FrameError as error:
                    await respond(_error_reply(error))
                    break
                if frame is None:
                    break
                frame_id = frame.get("id")
                if frame_id is None:
                    # Sequential path: one outstanding op, unnumbered reply.
                    await respond(await self._dispatch(session, frame))
                    continue
                # Pipelined path: bounded in-flight dispatch tasks; the
                # semaphore acquired *here* stops the read loop (and so
                # the socket) when the inbox is full.
                await inbox.acquire()
                task = asyncio.create_task(
                    self._pipelined(session, frame, frame_id, respond, inbox))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self._connections -= 1
            if tasks:
                await asyncio.gather(*tuple(tasks), return_exceptions=True)
            await self._close_session(session)
            writer.close()
            try:
                # CancelledError included: at loop teardown the handler
                # task is cancelled mid-wait_closed; nothing follows this
                # await, and finishing normally instead of cancelled keeps
                # the stdlib stream done-callback from logging noise.
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    async def _pipelined(
        self, session: Session, frame: dict[str, Any],
        frame_id: Any, respond, inbox: asyncio.Semaphore,
    ) -> None:
        try:
            reply = dict(await self._dispatch(session, frame))
            reply["id"] = frame_id
            try:
                await respond(reply)
            except (ConnectionResetError, BrokenPipeError):
                pass
        finally:
            inbox.release()

    async def _close_session(self, session: Session) -> None:
        """Abort whatever the connection left open and retire the session.
        A session suspended on a wait is interrupted first so close()
        cannot queue behind a wait that might outlive the connection."""
        session.interrupt()
        try:
            # Shielded: a cancelled connection task (loop teardown) must
            # still wait out the close so the engine state is released.
            await asyncio.shield(session.invoke("close"))
        except BaseException:  # noqa: BLE001 - best-effort cleanup
            pass

    # -------------------------------------------------------- dispatch

    async def _dispatch(
        self, conn_session: Session, frame: dict[str, Any]
    ) -> dict[str, Any]:
        try:
            spec, args = request_args(frame)
            if spec.method is None:
                return success_reply(spec, self._admin[spec.op](*args))
        except Exception as error:  # noqa: BLE001 - mapped onto the wire
            return _error_reply(error)
        op = spec.op
        # A "txn" field addresses a server-wide distributed-transaction
        # session keyed by the coordinator's global id instead of the
        # connection's own session.
        gtid = frame.get("txn")
        session = conn_session
        if gtid is not None:
            if op == "begin":
                if gtid in self._dtxns:
                    return _error_reply(ProtocolError(f"duplicate txn {gtid}"))
                session = self._dtxns[gtid] = self.scheduler.session()
                # Tag the engine transaction with the coordinator's
                # global id (rendered into conflict summaries).
                args.append(gtid)
            else:
                session = self._dtxns.get(gtid)
                if session is None:
                    return _error_reply(ProtocolError(f"unknown txn {gtid}"))
        txn = session.txn
        txn_id = txn.id if txn is not None else None
        try:
            # An idle session runs the op right here, on the loop; its
            # future is then already settled and the await does not yield.
            result = await session.invoke(spec.method, *args)
        except asyncio.CancelledError:
            raise  # the connection is going away; its teardown closes the session
        except BaseException as error:  # noqa: BLE001 - mapped onto the wire
            # A refused plain commit leaves a prepared transaction open
            # for the coordinator's commit_prepared or abort.
            if gtid is not None and (
                isinstance(error, TransactionAbortedError)
                or op in _TERMINAL and not (txn is not None and txn.prepared)
            ):
                await self._retire_dtxn(gtid)
            reply = self._abort_reply(error, txn_id)
            if gtid is not None:
                reply["gtid"] = gtid
            return reply
        if gtid is not None and op in _TERMINAL:
            await self._retire_dtxn(gtid)
        if op == "begin" and gtid is not None:
            self._gtids[result] = gtid
        return success_reply(spec, result)

    async def _retire_dtxn(self, gtid: int) -> None:
        """A distributed transaction reached a terminal state: unregister
        and close its session (idempotent — races with stop() are fine)."""
        session = self._dtxns.pop(gtid, None)
        if session is not None:
            await self._close_session(session)

    def _ping(self) -> dict[str, Any]:
        return {"server": "repro", "connections": self._connections}

    def _load(self, table: str, rows: list) -> None:
        """Bulk-load rows — refused by a durable server: a load is not
        logged, so its rows would vanish at the next restart."""
        if self.db.wal is not None:
            raise ProtocolError(
                "load is not logged on a durable server; "
                "insert the rows through a transaction"
            )
        self.db.load(table, rows)

    def _abort_reply(
        self, error: BaseException, txn_id: int | None
    ) -> dict[str, Any]:
        reply = _error_reply(error)
        if isinstance(error, TransactionAbortedError):
            reply["reason"] = error.reason
            failed_id = error.txn_id if error.txn_id is not None else txn_id
            if failed_id is not None:
                reply["txn"] = failed_id
                if self.db.trace is not None:
                    reply["explanation"] = self._explanation(failed_id)
        return reply

    def _explanation(self, txn_id: int) -> dict[str, Any] | None:
        try:
            explanation = self.db.explain_abort(txn_id)
        except Exception:  # noqa: BLE001 - diagnostics must not fail the reply
            return None
        return explanation.payload(self._gtids)

    # ----------------------------------------------------- shard admin

    def _dump_history(self) -> list[dict[str, Any]]:
        """The recorded execution history, each transaction labelled
        with its global id when it has one — the raw material for the
        coordinator's merged-MVSG serializability oracle."""
        history = self.db.history
        if history is None:
            raise ProtocolError("history recording is disabled on this shard")
        return [
            {
                "id": record.txn_id,
                "gtid": self._gtids.get(record.txn_id),
                "begin_ts": record.begin_ts,
                "commit_ts": record.commit_ts,
                "status": record.status,
                "ops": [
                    (op.kind, op.table, op.key, op.version_ts, op.seen_keys)
                    for op in record.ops
                ],
            }
            for record in history.snapshot_records()
        ]

    def _audit(self) -> dict[str, int]:
        """Residual engine state after quiesce — the sharded stress
        runner's clean-lock-table check, over the wire."""
        return self.db.audit()


#: ops after which a distributed transaction's session is retired
_TERMINAL = ("commit", "abort", "commit_prepared")


def _error_reply(error: BaseException) -> dict[str, Any]:
    return {"ok": False, "error": type(error).__name__, "message": str(error)}
