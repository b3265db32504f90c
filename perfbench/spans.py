"""Span tracer installed around the program's public functions.

Nothing under ``src/`` knows about it.  ``Tracer.install`` resolves each
target by dotted name, replaces the class attribute or module global with
a wrapper that records a span, and ``Tracer.remove`` puts the original
object back.  A target that no longer resolves is skipped and counted: a
refactor degrades a span, it never breaks the benchmark.

A span is ``(id, parent, thread, layer, name, start_ns, end_ns,
transaction, size)``.  There is one span stack per thread, so a span's
children run on its own thread inside its interval and
``self time = duration - sum(children)``.  Generators and coroutines are
traced per resumption step: time spent suspended (waiting for a reply,
or for the consumer to ask for the next chunk) is nobody's busy time.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import os
import pickle
import threading
import time
import types
from dataclasses import dataclass
from typing import Any, Callable

#: the driver's current transaction (sequence index); tasks and threads
#: that never set it record -1
TXN: contextvars.ContextVar[int] = contextvars.ContextVar("perfbench_txn", default=-1)

#: "idle" is not a layer of the program: it is the event loop waiting in
#: select(), kept apart so that waiting is not counted as the driver's work
LAYERS = ("harness", "client", "server", "session", "engine", "cc", "core",
          "locking", "mvcc", "storage", "wal", "idle")
_LAYER_BITS = 4  # span id = ordinal << 4 | layer, so a child can read its parent's layer
_LAYER_MASK = (1 << _LAYER_BITS) - 1

SPAN_COLUMNS = ("id", "parent", "thread", "layer", "name", "start_ns",
                "end_ns", "transaction", "size")

_MARK = "__perfbench_original__"


class _Stack(list):
    __slots__ = ("tid",)


# ------------------------------------------------------------------ targets


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(name)


def _one(_args, _kwargs, _result) -> int:
    return 1


def _batch_size(args, kwargs, _result) -> int:
    return len(_arg(args, kwargs, 2, "resources"))


def _mode_tag(args, kwargs) -> str:
    return _arg(args, kwargs, 3, "mode").name.lower()


def _flushed_bytes(args, _kwargs, _result) -> int:
    # flush() rewrites the whole durable prefix, so the bytes it wrote
    # are the file's size afterwards.
    path = args[0].path
    return os.path.getsize(path) if path is not None else 0


def _user_bytes(args, kwargs, _result) -> int:
    return len(pickle.dumps((_arg(args, kwargs, 3, "key"),
                             _arg(args, kwargs, 4, "value"))))


def _encoded_bytes(_args, _kwargs, result) -> int:
    return len(result)


def _decoded_bytes(args, kwargs, _result) -> int:
    return len(_arg(args, kwargs, 0, "body"))


def _chunk_rows(_args, _kwargs, result) -> int:
    return len(result)


@dataclass(frozen=True, slots=True)
class Target:
    """``module:Owner.attr`` (or ``module:function``) and how to trace it."""

    path: str
    #: layer name, or None to inherit the layer of the enclosing span
    #: (``decode_frame`` is one function serving client and server)
    layer: str | None
    size: Callable[[tuple, dict, Any], int] | None = None
    tag: Callable[[tuple, dict], str] | None = None
    #: also wrap the attribute wherever a subclass overrides it
    subclasses: bool = False
    #: "submit" marks Session._submit, whose thunk argument is traced too
    special: str | None = None


def _methods(owner: str, layer: str, names: str, **options) -> list[Target]:
    return [Target(f"{owner}.{name}", layer, **options) for name in names.split()]


TARGETS: tuple[Target, ...] = (
    *_methods("repro:Database", "engine",
              "begin read get read_for_update write insert delete scan "
              "commit abort load"),
    *_methods("repro.locking:LockManager", "locking", "acquire acquire_nowait",
              size=_one, tag=_mode_tag),
    Target("repro.locking:LockManager.acquire_read_batch", "locking",
           size=_batch_size, tag=_mode_tag),
    Target("repro.locking:LockManager.probe_detection", "locking", size=_one),
    Target("repro.locking:LockManager.probe_detection_batch", "locking",
           size=_batch_size),
    *_methods("repro.locking:LockManager", "locking",
              "release_all retain_all_reads drop_siread_locks cancel_waits"),
    *_methods("repro.cc:CCPolicy", "cc",
              "on_begin on_abort on_transaction_retired on_read on_write "
              "on_write_conflict on_rw_edge before_commit after_commit",
              subclasses=True),
    *_methods("repro.core:ConflictTracker", "core",
              "init_transaction mark_conflict check_commit after_commit",
              subclasses=True),
    *_methods("repro.mvcc:Snapshot", "mvcc", "visible"),
    *_methods("repro.mvcc:VersionChain", "mvcc", "visible install"),
    *_methods("repro.storage:Table", "storage", "chain ensure_chain load"),
    Target("repro.storage:Table.scan_chunks", "storage", size=_chunk_rows),
    Target("repro.wal:WriteAheadLog.log_write", "wal", size=_user_bytes),
    *_methods("repro.wal:WriteAheadLog", "wal", "log_commit log_abort load"),
    Target("repro.wal:WriteAheadLog.flush", "wal", size=_flushed_bytes),
    Target("repro.wal:recover_database", "wal"),
    Target("repro.server.core:encode_frame", "server", size=_encoded_bytes),
    Target("repro.server.core:read_frame_async", "server"),
    Target("repro.client:encode_frame", "client", size=_encoded_bytes),
    Target("repro.client:read_frame_async", "client"),
    Target("repro.server.protocol:decode_frame", None, size=_decoded_bytes),
    *_methods("repro.client:AsyncClient", "client",
              "connect _call begin read get read_for_update put commit "
              "abort close"),
    *_methods("repro.server:ReproServer", "server",
              "start stop _handle_connection _dispatch _close_session"),
    *_methods("repro.session:Session", "session",
              "begin read get read_for_update write commit abort close "
              "_step _suspend _resume"),
    Target("repro.session:Session._submit", "session", special="submit"),
    Target("selectors:DefaultSelector.select", "idle"),
    *_methods("repro.session:SessionScheduler", "session",
              "session shutdown _enqueue"),
)


def _resolve(path: str) -> tuple[Any, str]:
    """``module:A.b`` -> (owner object, attribute name); raises if any
    step is missing or the owner does not define the attribute itself."""
    module_name, _, dotted = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = dotted.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(f"{path}: {attr!r} is not defined on {owner!r}")
    return owner, attr


def _layer_id(target: Target) -> int | None:
    return LAYERS.index(target.layer) if target.layer else None


def _measure(size_of, args: tuple, kwargs: dict, result: Any) -> int:
    try:
        return size_of(args, kwargs, result)
    except Exception:  # noqa: BLE001 - a changed signature degrades the size, not the run
        return 0


def _all_subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


# ------------------------------------------------------------------- tracer


class Tracer:
    """Collects spans in memory; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ordinal = itertools.count(1)
        self._local = threading.local()
        self._threads: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []
        self.unresolved: list[str] = []
        #: wall time of each coroutine invocation, first step to last, by name
        self.invocations: dict[str, list[int]] = {}
        #: enqueue -> first worker pick-up of each session invocation
        self.queue_ns: list[int] = []
        #: named instants the driver records (replay start/end)
        self.marks: dict[str, int] = {}

    # ---------------------------------------------------------- recording

    def _stack(self) -> _Stack:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = _Stack()
            stack.tid = len(self._threads)
            self._threads.append(threading.get_ident())
            return stack

    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def begin(self, layer: str, name: str) -> tuple:
        """Open a span by hand (the driver's own harness spans)."""
        return self._step(LAYERS.index(layer), self.name_id(name))

    def end(self, token: tuple, size: int = 0) -> None:
        end = time.perf_counter_ns()
        sid, parent, stack, layer_id, name_id, start = token
        stack.pop()
        self.spans.append((sid, parent, stack.tid, layer_id, name_id,
                           start, end, TXN.get(), size))

    def mark(self, name: str) -> None:
        self.marks[name] = time.perf_counter_ns()

    # ------------------------------------------------------- installation

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        for target in TARGETS:
            try:
                owner, attr = _resolve(target.path)
            except (ImportError, AttributeError):
                self.unresolved.append(target.path)
                continue
            owners = [owner]
            if target.subclasses:
                owners += [sub for sub in _all_subclasses(owner) if attr in vars(sub)]
            for each in owners:
                label = f"{each.__name__}.{attr}" if inspect.isclass(each) else attr
                self._wrap(each, attr, label, target)

    def remove(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner: Any, attr: str, label: str, target: Target) -> None:
        original = vars(owner)[attr]
        function = original
        rebind = None
        if isinstance(original, (classmethod, staticmethod)):
            function, rebind = original.__func__, type(original)
        if target.special == "submit":
            wrapper = self._submit_wrapper(function, label)
        elif inspect.iscoroutinefunction(function):
            wrapper = self._coroutine_wrapper(function, label, target)
        elif inspect.isgeneratorfunction(function):
            wrapper = self._generator_wrapper(function, label, target)
        else:
            wrapper = self._call_wrapper(function, label, target)
        functools.update_wrapper(wrapper, function)
        setattr(wrapper, _MARK, function)
        setattr(owner, attr, rebind(wrapper) if rebind else wrapper)
        self._installed.append((owner, attr, original))

    # ----------------------------------------------------------- wrappers

    def _step(self, layer_fixed: int | None, name_id: int) -> tuple:
        """Open a span: one call, or one resumption step of a generator or
        coroutine.  ``layer_fixed`` None inherits the enclosing layer."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        layer_id = layer_fixed if layer_fixed is not None else parent & _LAYER_MASK
        sid = next(self._ordinal) << _LAYER_BITS | layer_id
        stack.append(sid)
        return sid, parent, stack, layer_id, name_id, time.perf_counter_ns()

    def _call_wrapper(self, function, label: str, target: Target):
        # _step and end are inlined here: this is the wrapper around every
        # point read and lock grant, and its own cost distorts the trace.
        layer_fixed = _layer_id(target)
        name_ids: dict[str | None, int] = {None: self.name_id(label)}
        size_of, tag_of = target.size, target.tag
        ordinal, get_stack = self._ordinal, self._stack
        spans, now, get_txn = self.spans, time.perf_counter_ns, TXN.get
        local = self._local

        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = get_stack()
            parent = stack[-1] if stack else 0
            layer_id = layer_fixed
            if layer_id is None:
                layer_id = parent & _LAYER_MASK
            sid = next(ordinal) << _LAYER_BITS | layer_id
            stack.append(sid)
            size = 0
            start = now()
            try:
                result = function(*args, **kwargs)
                if size_of is not None:
                    size = _measure(size_of, args, kwargs, result)
                return result
            finally:
                end = now()
                stack.pop()
                name_id = name_ids[None]
                if tag_of is not None:
                    name_id = self._tagged(name_ids, label, tag_of, args, kwargs)
                spans.append((sid, parent, stack.tid, layer_id, name_id,
                              start, end, get_txn(), size))

        return wrapper

    def _tagged(self, name_ids: dict, label: str, tag_of, args, kwargs) -> int:
        try:
            tag = tag_of(args, kwargs)
        except Exception:  # noqa: BLE001 - see _measure
            return name_ids[None]
        found = name_ids.get(tag)
        if found is None:
            found = name_ids[tag] = self.name_id(f"{label}[{tag}]")
        return found

    def _generator_wrapper(self, function, label: str, target: Target):
        layer_fixed, name_id, size_of = _layer_id(target), self.name_id(label), target.size

        def wrapper(*args, **kwargs):
            generator = function(*args, **kwargs)
            while True:
                token = self._step(layer_fixed, name_id)
                size = 0
                try:
                    item = next(generator)
                    if size_of is not None:
                        size = _measure(size_of, args, kwargs, item)
                except StopIteration:
                    return
                finally:
                    self.end(token, size)
                yield item

        return wrapper

    def _coroutine_wrapper(self, function, label: str, target: Target):
        layer_fixed, name_id = _layer_id(target), self.name_id(label)
        walls = self.invocations.setdefault(label, [])

        @types.coroutine
        def steps(coroutine):
            """Drive ``coroutine`` one traced step at a time, passing what
            it awaits up to the event loop and the loop's answers down."""
            value, error, first = None, None, None
            while True:
                token = self._step(layer_fixed, name_id)
                if first is None:
                    first = token[-1]
                try:
                    if error is None:
                        awaited = coroutine.send(value)
                    else:
                        awaited = coroutine.throw(error)
                except StopIteration as stop:
                    walls.append(time.perf_counter_ns() - first)
                    return stop.value
                finally:
                    self.end(token)
                try:
                    value, error = (yield awaited), None
                except GeneratorExit:
                    coroutine.close()
                    raise
                except BaseException as thrown:  # noqa: BLE001 - forwarded into the coroutine
                    value, error = None, thrown

        async def wrapper(*args, **kwargs):
            return await steps(function(*args, **kwargs))

        return wrapper

    def _submit_wrapper(self, function, label: str):
        """``Session._submit(fn, on_done, label)``: a span for the enqueue
        itself, plus the thunk replaced by one that times its hand-off to
        a worker and records each execution as a span."""
        layer_id = LAYERS.index("session")
        run_name = self.name_id("Session.invocation")
        queue_ns, now = self.queue_ns, time.perf_counter_ns

        def substitute(*args, **kwargs):
            if len(args) < 2 or not callable(args[1]):
                return function(*args, **kwargs)
            thunk, enqueued, pending = args[1], now(), [True]

            def traced_thunk():
                token = self._step(layer_id, run_name)
                if pending:
                    pending.clear()
                    queue_ns.append(token[-1] - enqueued)
                try:
                    return thunk()
                finally:
                    self.end(token)

            return function(args[0], traced_thunk, *args[2:], **kwargs)

        return self._call_wrapper(substitute, label, Target(label, "session"))

    # ------------------------------------------------------------- output

    def dump(self) -> dict:
        """The trace as one JSON-able object; times are relative to the
        earliest span."""
        origin = min((span[5] for span in self.spans), default=0)
        return {
            "columns": list(SPAN_COLUMNS),
            "layers": list(LAYERS),
            "names": list(self.names),
            "threads": len(self._threads),
            "marks": {name: at - origin for name, at in self.marks.items()},
            "unresolved": list(self.unresolved),
            "spans": [
                [sid, parent, tid, layer_id, name_id, start - origin,
                 end - origin, txn, size]
                for sid, parent, tid, layer_id, name_id, start, end, txn, size
                in self.spans
            ],
        }


def installed_wrappers() -> list[str]:
    """Targets that currently resolve to a tracer wrapper.  A timed replay
    asserts this is empty."""
    found = []
    for target in TARGETS:
        try:
            owner, attr = _resolve(target.path)
        except (ImportError, AttributeError):
            continue
        value = vars(owner)[attr]
        value = getattr(value, "__func__", value)
        if hasattr(value, _MARK):
            found.append(target.path)
    return found


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> duration minus the time its children cover."""
    own = {span[0]: span[6] - span[5] for span in spans}
    for span in spans:
        if span[1] in own:
            own[span[1]] -= span[6] - span[5]
    return own
