"""Log-device modelling: a group flush commits every queued writer."""

from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.sim.ops import ReadForUpdate, Write
from repro.sim.scheduler import SimConfig, Simulator
from repro.sim.workload import Mix, Workload


def writers_workload(keys=32):
    def setup(db):
        db.create_table("t")
        db.load("t", ((i, 0) for i in range(keys)))

    def update(rng):
        key = rng.randrange(keys)
        value = yield ReadForUpdate("t", key)
        yield Write("t", key, value + 1)

    return Workload("writers", setup, Mix([("u", 1.0, update)]))


def test_group_commit_batches():
    """One flush commits every writer queued behind it: at MPL 8
    throughput sits well above the 1/flush_time a flush per commit
    would pin it to."""
    workload = writers_workload()
    db = Database(EngineConfig())
    workload.setup(db)
    result = Simulator(
        db, workload, "si", 8,
        SimConfig(duration=1.0, warmup=0.0, commit_flush=True,
                  flush_time=0.010),
    ).run()
    assert result.throughput > 300
