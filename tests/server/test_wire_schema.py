"""``WIRE_OPS`` is the contract.

Every op's request and reply round-trip through the four helpers and
a JSON frame, the schema rejects what it does not describe, every façade
speaks the whole transactional vocabulary — and a composite key, which
survives the wire only because the table rebuilds key-typed fields,
travels every path (both clients, bulk load, a two-shard cluster whose
histories feed the merged-MVSG oracle).
"""

from __future__ import annotations

import asyncio
import inspect

import pytest

from repro.client import AsyncClient, PipelinedClient
from repro.engine.config import EngineConfig
from repro.engine.database import Database
from repro.server.protocol import (
    REQUIRED,
    WIRE_OPS,
    ProtocolError,
    build_request,
    decode_frame,
    encode_frame,
    read_result,
    request_args,
    success_reply,
)
from repro.session import Session
from repro.shard import PartitionMap, ShardCluster
from repro.shard.audit import check_merged_serializable

from tests.server.test_server import run_with_server

#: one sample per request field; composite wherever a key travels
SAMPLE_ARGS = {
    "isolation": "si", "read_only": True, "deferrable": True,
    "table": "t", "index": "i", "key": ("w", 1), "lo": ("w", 0),
    "hi": ("w", 9), "value": {"n": [1, 2]}, "default": "none",
    "rows": [(("w", 1), "a"), (("w", 2), "b")],
    "import_in": True, "import_out": True,
}
#: one sample result per op that has one
SAMPLE_RESULTS = {
    "begin": 7, "read": "v", "get": [1, 2], "read_for_update": 0,
    "scan": [(("w", 1), "a"), (("w", 2), ["b"])],
    "index_scan": [(("g", ("w", 1)), ("w", 1))],
    "index_lookup": [("w", 1), ("w", 2)],
    "prepare": {"in": True, "out": False, "in_partner": 3, "out_partner": None},
    "metrics": {"counters": {}},
    "ping": {"ok": True, "server": "repro", "connections": 1},
    "dump_history": [{
        "id": 1, "gtid": 9, "begin_ts": 1, "commit_ts": 2,
        "status": "committed",
        "ops": [("read", "t", ("w", 1), 0, ()),
                ("scan", "t", (("w", 0), None), None, (("w", 1), ("w", 2)))],
    }],
    "audit": {"granted": 0, "owners": 0, "waiters": 0, "siread": 0,
              "suspended": 0, "prepared": 0},
}


def over_the_wire(frame):
    return decode_frame(encode_frame(frame)[4:])


def sample_args(spec):
    return tuple(SAMPLE_ARGS[name] for name in spec.names)


# Case ids keep their ``-json`` suffix: every frame body is JSON.
@pytest.mark.parametrize("op", sorted(WIRE_OPS), ids=lambda op: f"{op}-json")
class TestEveryOp:
    def test_request_round_trips_to_arguments(self, op):
        spec = WIRE_OPS[op]
        frame = over_the_wire(build_request(op, sample_args(spec), txn=5))
        assert frame["op"] == op and frame["txn"] == 5
        got_spec, args = request_args(frame)
        assert got_spec is spec
        assert tuple(args) == sample_args(spec)

    def test_reply_round_trips_to_result(self, op):
        spec = WIRE_OPS[op]
        assert (op in SAMPLE_RESULTS) == (spec.reply is not None)
        result = SAMPLE_RESULTS.get(op)
        reply = over_the_wire(success_reply(spec, result))
        assert reply["ok"] is True
        assert read_result(op, reply) == result

    def test_defaults_apply_and_required_fields_are_required(self, op):
        spec = WIRE_OPS[op]
        required = [name for name, default, _ in spec.fields
                    if default is REQUIRED]
        # Only the required fields sent: the receiver fills in the rest.
        frame = build_request(op, sample_args(spec)[:len(required)])
        _, args = request_args(over_the_wire(frame))
        assert args[:len(required)] == list(sample_args(spec)[:len(required)])
        assert args[len(required):] == [
            default for _, default, _ in spec.fields[len(required):]
        ]
        for missing in required:
            short = dict(frame)
            del short[missing]
            with pytest.raises(ProtocolError, match=missing):
                request_args(over_the_wire(short))


@pytest.mark.parametrize("op", ["no_such_op", None, 7, ["scan"], "batch",
                                "hello"])
def test_unknown_op_is_a_protocol_error(op):
    with pytest.raises(ProtocolError, match="unknown op"):
        request_args({"op": op})


def test_put_is_the_wire_name_of_write():
    assert WIRE_OPS["put"].method == "write"
    assert all(spec.method == op for op, spec in WIRE_OPS.items()
               if spec.method and op != "put")


def test_every_facade_speaks_every_transactional_op():
    """Drift guard: an op added to the table must reach every façade
    or fail here."""
    for op, spec in WIRE_OPS.items():
        if spec.kind != "txn":
            continue
        assert inspect.iscoroutinefunction(vars(AsyncClient).get(op)), op
        assert callable(vars(PipelinedClient).get(op)), op
        assert callable(vars(Session).get(spec.method)), op
        # ...and with the positional vocabulary the table spells.
        for facade in (AsyncClient, PipelinedClient):
            _self, *params = inspect.signature(getattr(facade, op)).parameters
            assert tuple(params) == spec.names, (facade, op)
    for op, spec in WIRE_OPS.items():
        if spec.kind == "2pc":
            assert callable(vars(Session).get(spec.method)), op


# ------------------------------------------------- composite keys travel

W1, W2, W3 = ("w", 1), ("w", 2), ("w", 3)


@pytest.fixture
def district_db():
    """A TPC-C-shaped table: ``(warehouse, district)`` keys, and an
    index whose entries are themselves composite."""
    db = Database(EngineConfig(record_history=True))
    db.create_table("d")
    db.create_index("d_by_zone", "d",
                    lambda key, value: (value["zone"], key[1]))
    return db


#: the same script for both clients: (method, args) -> expected result
COMPOSITE_SCRIPT = [
    (("load", "d", [(W1, {"zone": "n"}), (W2, {"zone": "s"})]), None),
    (("begin", "ssi"), int),
    (("put", "d", W1, {"zone": "n", "ytd": 5}), None),
    (("insert", "d", W3, {"zone": "n"}), None),
    (("get", "d", W1), {"zone": "n", "ytd": 5}),
    (("read", "d", W2), {"zone": "s"}),
    (("read_for_update", "d", W3), {"zone": "n"}),
    (("scan", "d", W1, W2), [(W1, {"zone": "n", "ytd": 5}),
                             (W2, {"zone": "s"})]),
    (("index_lookup", "d_by_zone", ("n", 3)), [W3]),
    (("index_scan", "d_by_zone", ("n", 0), ("n", 9)),
     [(("n", 1), W1), (("n", 3), W3)]),
    (("delete", "d", W2), None),
    (("scan", "d"), [(W1, {"zone": "n", "ytd": 5}), (W3, {"zone": "n"})]),
    (("commit",), None),
]


def check_composite(results):
    for ((name, *_), expected), got in zip(COMPOSITE_SCRIPT, results):
        if expected is int:
            assert isinstance(got, int), name
        else:
            assert got == expected, name


def test_composite_keys_through_the_async_client(district_db):
    async def body(server):
        client = await AsyncClient.connect(port=server.port)
        results = [await getattr(client, name)(*args)
                   for (name, *args), _ in COMPOSITE_SCRIPT]
        await client.close()
        return results

    check_composite(run_with_server(district_db, body))
    check = district_db.begin("si")
    assert check.read("d", W3) == {"zone": "n"}
    check.commit()


def test_composite_keys_through_the_blocking_client(district_db):
    async def body(server):
        def blocking():
            with PipelinedClient(port=server.port) as client:
                return [getattr(client, name)(*args)
                        for (name, *args), _ in COMPOSITE_SCRIPT]

        return await asyncio.get_running_loop().run_in_executor(None, blocking)

    check_composite(run_with_server(district_db, body))


def test_composite_keys_across_two_remote_shards():
    """Warehouses 1-2 on shard 0, 3-4 on shard 1: point ops, a scan
    spanning both, a cross-shard 2PC commit — then the shards' wire
    histories (tuple keys, scan bounds, seen-key lists) must merge into
    one serializable MVSG."""
    pmap = PartitionMap(2, {"d": [("w", 2)]})
    with ShardCluster(pmap) as cluster:
        coordinator = cluster.coordinator
        coordinator.create_table("d")
        coordinator.load("d", [(("w", n), n) for n in (1, 2, 3, 4)])
        t1 = coordinator.begin("ssi")
        assert coordinator.read(t1, "d", ("w", 1)) == 1
        assert coordinator.get(t1, "d", ("w", 9), "absent") == "absent"
        coordinator.write(t1, "d", ("w", 1), 10)
        coordinator.write(t1, "d", ("w", 4), 40)      # other shard: 2PC
        coordinator.insert(t1, "d", ("w", 5), 5)
        assert coordinator.scan(t1, "d", ("w", 2), ("w", 3)) == [
            (("w", 2), 2), (("w", 3), 3),
        ]
        coordinator.commit(t1)
        t2 = coordinator.begin("ssi")
        assert coordinator.scan(t2, "d") == [
            (("w", 1), 10), (("w", 2), 2), (("w", 3), 3),
            (("w", 4), 40), (("w", 5), 5),
        ]
        coordinator.delete(t2, "d", ("w", 2))
        coordinator.commit(t2)

        histories = coordinator.shard_histories()
        keys = {op.key for records, _ in histories
                for record in records for op in record.ops}
        assert ("w", 1) in keys and ("w", 4) in keys
        assert (None, None) in keys             # t2's scan bounds
        assert (("w", 2), ("w", 3)) in keys     # t1's, a pair of keys
        report = check_merged_serializable(histories)
        assert report.serializable, report
        counters = coordinator.metrics.snapshot()["counters"]["coordinator"]
        assert counters["cross_shard_commits"] >= 1
