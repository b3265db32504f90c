"""Crash points inside the log's atomic rewrites.

``truncate_before`` and ``take_checkpoint(path)`` each rewrite a file
through ``replace_file`` (write a temporary file, fsync it, rename it
over the old one, fsync the directory), and a checkpoint first flushes
the log.  Each case makes one of those ``os`` calls fail — the nth
``fsync`` or the ``replace`` — then commits once more, loses the
unflushed log (``crash``), reloads the log file and recovers from
whichever checkpoint file exists.  Recovery must hold exactly the
acknowledged commits, and a second recovery the same.
"""

import os

import pytest

from repro import Database, EngineConfig
from repro.wal import (
    WriteAheadLog,
    recover_database,
    recover_from_checkpoint,
    take_checkpoint,
)


class FailingOS:
    """The ``os`` module, except that the ``nth`` call of ``name``
    raises ``OSError`` (once)."""

    def __init__(self, name: str, nth: int):
        self._name, self._left = name, nth
        self.failed = False

    def __getattr__(self, attr):
        real = getattr(os, attr)
        if attr != self._name:
            return real

        def call(*args, **kwargs):
            self._left -= 1
            if self._left == 0:
                self.failed = True
                raise OSError(f"injected failure of os.{attr}")
            return real(*args, **kwargs)

        return call


class Scenario:
    """A durable database and the commits it has acknowledged."""

    def __init__(self, directory):
        self.log_path = str(directory / "wal.bin")
        self.checkpoint_path = str(directory / "checkpoint.bin")
        self.db = Database(EngineConfig(),
                           wal=WriteAheadLog(path=self.log_path))
        self.db.create_table("t")
        self.acked: dict = {}

    def commit(self, key, value) -> None:
        txn = self.db.begin("ssi")
        txn.write("t", key, value)
        txn.commit()
        self.acked[key] = value

    def checkpoint(self) -> dict:
        return take_checkpoint(self.db, self.checkpoint_path)

    def recover(self) -> dict:
        log = WriteAheadLog.load(self.log_path)
        if os.path.exists(self.checkpoint_path):
            db = recover_from_checkpoint(self.checkpoint_path, log)
        else:
            db = recover_database(log)
        with db.begin("si") as txn:
            return dict(txn.scan("t"))


def fail_once(monkeypatch, name: str, nth: int, operation) -> None:
    """Run ``operation`` with the ``nth`` ``os.<name>`` of the log
    module failing, and require that failure to have surfaced."""
    failing = FailingOS(name, nth)
    with monkeypatch.context() as patch:
        patch.setattr("repro.wal.log.os", failing)
        with pytest.raises(OSError, match="injected"):
            operation()
    assert failing.failed


def crash_and_recover_twice(scenario: Scenario) -> None:
    scenario.commit("after", 99)
    scenario.db.wal.crash()
    assert scenario.recover() == scenario.acked
    assert scenario.recover() == scenario.acked


#: replace_file's calls: fsync 1 the temporary file, then the replace,
#: then fsync 2 the directory
REWRITE_POINTS = [("fsync", 1), ("replace", 1), ("fsync", 2)]


@pytest.mark.parametrize("name, nth", REWRITE_POINTS)
def test_crash_inside_truncate_before(tmp_path, monkeypatch, name, nth):
    scenario = Scenario(tmp_path)
    scenario.commit("a", 0)
    scenario.commit("b", 1)
    image = scenario.checkpoint()
    scenario.commit("c", 2)
    scenario.commit("a", 3)
    fail_once(monkeypatch, name, nth,
              lambda: scenario.db.wal.truncate_before(image["checkpoint_lsn"]))
    crash_and_recover_twice(scenario)


#: fsync 1 the checkpoint's log flush, then replace_file's calls
CHECKPOINT_POINTS = [("fsync", 1), ("fsync", 2), ("replace", 1), ("fsync", 3)]


@pytest.mark.parametrize("earlier_checkpoint", [False, True])
@pytest.mark.parametrize("name, nth", CHECKPOINT_POINTS)
def test_crash_inside_take_checkpoint(tmp_path, monkeypatch, name, nth,
                                      earlier_checkpoint):
    scenario = Scenario(tmp_path)
    scenario.commit("a", 0)
    scenario.commit("b", 1)
    if earlier_checkpoint:
        image = scenario.checkpoint()
        scenario.db.wal.truncate_before(image["checkpoint_lsn"])
    scenario.commit("c", 2)
    scenario.commit("a", 3)
    fail_once(monkeypatch, name, nth, scenario.checkpoint)
    crash_and_recover_twice(scenario)
