"""Error reply -> exception: the mapping both clients share.

An abort travels as its exception class name + machine-readable reason
and is re-raised client-side as the same :mod:`repro.errors` class,
with the server's ``explanation`` payload (when tracing is enabled
server-side) attached as ``error.explanation``.
"""

from __future__ import annotations

from typing import Any

import repro.errors as _errors
from repro.errors import ReproError, TransactionAbortedError

__all__ = ["ServerError", "raise_reply"]


class ServerError(ReproError):
    """The server reported an error that maps to no known exception
    class (protocol violations, schema errors raised remotely...)."""

    def __init__(self, name: str, message: str):
        super().__init__(f"{name}: {message}")
        self.remote_error = name


def raise_reply(reply: dict[str, Any]) -> None:
    """Raise what an ``ok: false`` reply describes."""
    name = reply.get("error", "ServerError")
    message = reply.get("message", "")
    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        if issubclass(cls, TransactionAbortedError):
            error: ReproError = cls(message, txn_id=reply.get("txn"))
        else:
            try:
                error = cls(message)
            except TypeError:
                # Constructors with structured arguments (table, key...)
                # can't be rebuilt from a message alone; keep the class
                # identity and carry the server-rendered message.
                error = cls.__new__(cls)
                Exception.__init__(error, message)
    else:
        error = ServerError(name, message)
    error.explanation = reply.get("explanation")  # type: ignore[attr-defined]
    raise error
