"""``python -m repro.server --wal PATH``: acknowledged commits survive a
restart — a killed server and a cleanly stopped one alike — and a server
recovered from its log keeps logging to it."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.client import PipelinedClient, ServerError
from repro.wal import WriteAheadLog

SRC = str(Path(__file__).resolve().parents[2] / "src")


@contextmanager
def server_process(*args, stop=signal.SIGINT, cwd=None):
    """Run ``python -m repro.server *args`` on an ephemeral port; yields
    the port and stops the process with ``stop`` on exit."""
    env = dict(os.environ, PYTHONPATH=SRC)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--port", "0", *args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=cwd)
    try:
        line = process.stdout.readline()
        assert "listening on" in line, line
        yield int(line.rsplit(":", 1)[1])
    finally:
        process.send_signal(stop)
        process.wait(timeout=30)
        process.stdout.close()


def commit_puts(port, rows):
    """One transaction per row; returns the rows whose commit was
    acknowledged."""
    acked = {}
    with PipelinedClient(port=port) as client:
        for key, value in rows.items():
            client.begin("ssi")
            client.put("t", key, value)
            client.commit()
            acked[key] = value
    return acked


def read_all(port):
    with PipelinedClient(port=port) as client:
        client.begin("si", read_only=True)
        rows = dict(client.scan("t"))
        client.commit()
    return rows


def test_acknowledged_commits_survive_restarts(tmp_path):
    wal_path = str(tmp_path / "server.wal")
    with server_process("--wal", wal_path, stop=signal.SIGKILL) as port:
        with PipelinedClient(port=port) as client:
            client.create_table("t")
        acked = commit_puts(port, {"a": "first", "b": "first"})
    # killed, not stopped: only the log's fsync'd frames survive
    with server_process("--wal", wal_path) as port:
        assert read_all(port) == acked
        acked.update(commit_puts(port, {"a": "second", "c": "second"}))
        acked.update(commit_puts(port, {"b": "third"}))
    # the second restart replays commits made by a recovered server,
    # whose transaction ids must not repeat the first run's
    with server_process("--wal", wal_path) as port:
        assert read_all(port) == acked == {
            "a": "second", "b": "third", "c": "second"}
    ids = WriteAheadLog.load(wal_path).committed_txn_ids()
    assert len(ids) == 5 and len(set(ids)) == 5


def test_durable_server_refuses_a_bulk_load(tmp_path):
    """A load is not logged, so its rows would vanish at a restart: the
    durable server refuses it and points at transactions instead."""
    wal_path = str(tmp_path / "server.wal")
    with server_process("--wal", wal_path) as port:
        with PipelinedClient(port=port) as client:
            client.create_table("t")
            with pytest.raises(ServerError) as info:
                client.load("t", [("a", "loaded")])
            assert info.value.remote_error == "ProtocolError"
            assert "through a transaction" in str(info.value)
        assert read_all(port) == {}
        acked = commit_puts(port, {"a": "committed"})
    with server_process("--wal", wal_path) as port:
        assert read_all(port) == acked


def test_without_wal_flag_nothing_is_written(tmp_path):
    with server_process(cwd=tmp_path) as port:
        with PipelinedClient(port=port) as client:
            client.create_table("t")
        commit_puts(port, {"a": 1})
        assert read_all(port) == {"a": 1}
    assert list(tmp_path.iterdir()) == []
