"""Forked shard engine processes and the all-in-one cluster.

Each shard is a forked child running the unmodified
:class:`~repro.server.core.ReproServer` on an ephemeral port, reported
back through a pipe.  Fork (not spawn) keeps startup cheap and ships
the :class:`~repro.engine.config.EngineConfig` by inheritance; each
child is single-purpose and dies with SIGTERM.

:class:`ShardCluster` is the one-stop deployment: N shard processes,
one :class:`~repro.shard.backend.RemoteShard` link each, and a
:class:`~repro.shard.coordinator.Coordinator` on top.  The default
engine config records history (for the merged-MVSG oracle) and sets a
lock timeout — the per-shard deadlock detectors cannot see distributed
cycles, so cross-shard lock waits must time out instead (InnoDB-style;
see the coordinator's module docstring).
"""

from __future__ import annotations

import asyncio
import multiprocessing

from repro.engine.config import EngineConfig
from repro.shard.backend import RemoteShard
from repro.shard.coordinator import Coordinator
from repro.shard.partition import PartitionMap

__all__ = ["ShardCluster", "ShardProcess", "default_shard_config"]

#: cross-shard lock waits must time out (no global deadlock detector)
_DEFAULT_LOCK_TIMEOUT = 5.0


def default_shard_config() -> EngineConfig:
    return EngineConfig(record_history=True,
                        lock_timeout=_DEFAULT_LOCK_TIMEOUT)


def _serve_shard(config: EngineConfig, trace: bool, channel) -> None:
    # Child process: build a fresh engine and serve until killed.
    from repro.engine.database import Database
    from repro.server.core import ReproServer

    db = Database(config)
    if trace:
        db.enable_tracing()
    server = ReproServer(db)

    async def main() -> None:
        await server.start()
        channel.send(server.port)
        channel.close()
        await server.serve_forever()

    try:
        asyncio.run(main())
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass


class ShardProcess:
    """One forked shard server; ``port`` is live after construction."""

    def __init__(self, config: EngineConfig | None = None, *,
                 trace: bool = False, start_timeout: float = 30.0) -> None:
        config = config or default_shard_config()
        ctx = multiprocessing.get_context("fork")
        parent, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_serve_shard, args=(config, trace, child),
            daemon=True,
        )
        self.process.start()
        child.close()
        if not parent.poll(start_timeout):
            self.stop()
            raise RuntimeError("shard server did not report a port in time")
        self.port: int = parent.recv()
        parent.close()

    def stop(self, timeout: float = 10.0) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout)


class ShardCluster:
    """N forked shard servers + remote links + a coordinator.

    Context-manager friendly::

        pmap = smallbank_partition_map(shards=2, customers=64)
        with ShardCluster(pmap) as cluster:
            setup_smallbank(cluster.coordinator, customers=64)
            run_program(cluster.coordinator, balance(customer_name(3)))
    """

    def __init__(self, partition_map: PartitionMap, *,
                 config: EngineConfig | None = None, trace: bool = False,
                 certify: bool = True) -> None:
        config = config or default_shard_config()
        self.partition_map = partition_map
        self.processes: list[ShardProcess] = []
        self.backends: list[RemoteShard] = []
        try:
            for _ in range(partition_map.shards):
                self.processes.append(ShardProcess(config, trace=trace))
            self.backends = [
                RemoteShard(port=process.port) for process in self.processes
            ]
            self.coordinator = Coordinator(
                self.backends, partition_map, certify=certify
            )
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for backend in self.backends:
            try:
                backend.close()
            except Exception:  # noqa: BLE001 - teardown must reach every child
                pass
        for process in self.processes:
            process.stop()

    def __enter__(self) -> "ShardCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
