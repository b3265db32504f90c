#!/usr/bin/env python
"""Static latch-discipline lint (PR 5).

Five AST checks over the engine's concurrency-critical modules, run in CI
next to ruff/mypy:

1. **Protected-state mutations.**  Each checked module registers the
   shared attributes a latch protects (the registry below mirrors the
   latch-hierarchy docs in ``repro.engine.latches``).  Any statement that
   *mutates* one of them — subscript/attribute assignment, augmented
   assignment, or a mutating method call (``append``, ``pop``, ...) —
   must sit lexically inside a ``with`` block holding the required latch.
   Reads are deliberately not checked: the engine's documented fast paths
   rely on GIL-atomic latch-free probes, and the hierarchy only requires
   *mutations* to be latched.  A genuinely-safe latch-free mutation can
   be waived with a ``# latch-free`` comment on the offending line, which
   this lint treats as a reviewed exception.  A private helper whose
   contract is "caller holds the latch" needs no waiver: when *every*
   call of ``_name`` in the module sits lexically under the latch, or
   inside another such helper, its body is checked as if the latch were
   held (helpers are matched by name within one module; a helper that
   escapes as a bare reference, or has no call site, does not qualify).

2. **No suspension under latch (PR 7).**  A function must not ``await``
   or enter a session/thread suspension point (``block_on``,
   ``block_until``, ``Session._suspend``, a blocking ``Completion.wait``)
   while a recognised latch is lexically held: the waker may need that
   latch to resolve the wait, so suspension under latch is a deadlock by
   construction.

3. **No blocking RPC under latch (PR 8).**  In the sharding layer
   (``repro.shard``), a call on a shard backend or wire link
   (``self.backends[s].op(...)``, ``self.link.call(...)``) is a
   blocking round trip to another process.  Holding a recognised latch
   across one stalls every local thread needing that latch on a remote
   peer — so the lint flags any such call lexically under a latch.  The
   coordinator's *apply gates* are deliberately not latches (they are
   commit-visibility gates, held across the ``commit_prepared`` fan-out
   by design; see the coordinator's module docstring) and are not
   registered here.

4. **No WAL I/O under latch (PR 9).**  A call that appends to or
   flushes the write-ahead log (``self.wal.log_write(...)``,
   ``db.wal.flush()``...) is file I/O — the group-commit pipeline's
   whole point is that it happens *outside* the tracker/commit latched
   section, so the lint flags any ``wal``-receiver logging call made
   while a recognised latch is lexically held.  (The WAL's own leaf
   latch is taken inside the log module and ranks at the bottom of the
   hierarchy, so it never blocks engine latch holders.)

5. **Acquisition order.**  Within a function, nested ``with`` blocks
   over recognised latch expressions must acquire in non-decreasing rank
   order (``txn < tracker < commit < table < lock < obs < wal``) —
   mirroring the runtime ``CheckedLatch`` enforcement, but at review
   time and on every path, not just the paths a test happens to drive.

The lint is intentionally syntactic: it sees lexical nesting, not
call-graph latch state, so it cannot prove the absence of cross-function
violations (that is what ``REPRO_LATCH_DEBUG=1`` test runs are for).  It
exists to catch the common regression — a new mutation of a registered
attribute outside its latch — before a racy test run has to.

Usage::

    python scripts/check_latch_discipline.py            # lint default set
    python scripts/check_latch_discipline.py FILE...    # lint given files
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _engine_ranks() -> dict:
    """The engine's own rank table, loaded from its source file (no
    package import: the lint must run on a tree that does not import)."""
    spec = importlib.util.spec_from_file_location(
        "_repro_latches",
        os.path.join(REPO_ROOT, "src", "repro", "engine", "latches.py"),
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.RANKS


RANKS = {
    **_engine_ranks(),
    # Coordinator-process latches (repro.shard): they never nest with
    # engine latches — the engines live in other processes — so their
    # ranks only order them against each other.
    "vis": 84,
    "abort-log": 86,
}

#: latch attribute name -> rank name, for ``self.<attr>`` / ``obj.<attr>``
LATCH_ATTRS = {
    "_txn_latch": "txn",
    "_tracker_latch": "tracker",
    "_commit_latch": "commit",
    "latch": "table",  # Table.latch
    "_vis_latch": "vis",  # Coordinator's commit-sequence vector latch
    "_abort_lock": "abort-log",  # Coordinator's explain_abort memory
}

#: bare names recognised as latches (module-level singletons)
LATCH_NAMES = {"OBS_LATCH": "obs"}

#: what the attribute ``_latch`` (an object's one own latch) ranks as,
#: by the file that spells it
OWN_LATCH = {
    "src/repro/locking/manager.py": "lock",
    "src/repro/wal/log.py": "wal",
    # the engine spells only its lock manager's (``self.locks._latch``)
    "src/repro/engine/database.py": "lock",
}

#: method calls that mutate their receiver
MUTATORS = {
    "append", "add", "clear", "discard", "extend", "insert", "pop",
    "popitem", "remove", "setdefault", "update", "appendleft", "popleft",
}

#: calls that suspend the current execution (thread-park or session
#: suspension) — never legal while a latch is held: the thread waits in
#: ``block_on``/``block_until`` or on a ``Completion``/``Event`` via
#: ``wait`` (engine code calls ``wait`` on nothing else), a session in
#: ``Session._suspend``.
SUSPEND_CALLS = {"block_on", "block_until", "_suspend", "wait"}

#: WAL methods that perform log I/O: never legal under an engine latch
#: (rule 4) — flush-before-release is sequenced by the commit pipeline,
#: not by holding latches across file writes.
WAL_CALLS = {"log_write", "log_commit", "log_abort", "log_begin",
             "log_checkpoint", "flush"}

#: receiver attribute names that denote the write-ahead log
WAL_RECEIVERS = {"wal"}

#: receiver names that denote a shard backend or wire link: calling
#: through one is a blocking RPC to another process (rule 3).
RPC_RECEIVERS = {"backend", "backends", "link", "shard_link"}

#: files where the RPC-under-latch rule applies (the sharding layer)
RPC_FILES = {
    "src/repro/shard/coordinator.py",
    "src/repro/shard/backend.py",
    "src/repro/shard/process.py",
    "src/repro/shard/stress.py",
}

#: files checked by default, with the shared attributes each latch
#: protects: attr -> rank-name of the required latch.
DEFAULT_RULES = {
    "src/repro/engine/database.py": {
        "_active": "txn",
        "_registry": "txn",
        "_suspended": "txn",
        "_retired_writers": "txn",
        # the cleanup horizon's snapshot deque (appended under the commit
        # latch too, which orders it) and the sweep's set-aside list
        "_snapshots": "txn",
        "_set_aside": "txn",
        "_retiring_policies": "tracker",
    },
    "src/repro/locking/manager.py": {
        "_heads": "lock",
        "_by_owner": "lock",
        "_waiting": "lock",
        "_readers": "lock",
        "_reads": "lock",
        "_granted_count": "lock",
        # escalate/_fold: the fold's weight plus the heads and indexes
        # above, all under the one manager latch
        "_escalated_weights": "lock",
        "_ranges": "lock",
        "_exclusive_keys": "lock",
    },
    # The safe-snapshot monitor mutates its watch maps under the engine's
    # tracker latch (its register/on_commit/on_abort contracts).
    "src/repro/core/conflicts.py": {
        "_watching": "tracker",
        "_watchers": "tracker",
    },
    # Wait-completion layers: no protected attributes of their own, but
    # the no-suspension-under-latch rule must hold everywhere a wait can
    # start or a session can suspend.
    "src/repro/engine/transaction.py": {},
    "src/repro/engine/waits.py": {},
    # Group-commit batcher: leader-run certification under hoisted
    # latches, WAL I/O and finalize strictly after they drop — rules 2
    # and 4 police exactly that split.
    "src/repro/engine/groupcommit.py": {},
    "src/repro/session/__init__.py": {},
    "src/repro/server/core.py": {},
    # The program runner and its executors: every program step, lock
    # wait and stress client thread starts here.
    "src/repro/sim/ops.py": {},
    "src/repro/sim/direct.py": {},
    "src/repro/sim/interleave.py": {},
    "src/repro/exec/stress.py": {},
    # Sharding layer: the commit-sequence vector and the explain_abort
    # memory are mutated under their own coordinator-process latches;
    # the RPC-under-latch rule (rule 3) covers every function here.
    "src/repro/shard/coordinator.py": {
        "_csn": "vis",
        "_aborts": "abort-log",
    },
    "src/repro/shard/backend.py": {},
    "src/repro/shard/process.py": {},
    "src/repro/shard/stress.py": {},
}


def latch_rank_of(node: ast.expr, aliases: dict, path: str) -> str | None:
    """The rank name of a recognised latch expression, else None."""
    if isinstance(node, ast.Attribute):
        if node.attr == "_latch":
            return OWN_LATCH.get(path)
        return LATCH_ATTRS.get(node.attr)
    if isinstance(node, ast.Name):
        if node.id in LATCH_NAMES:
            return LATCH_NAMES[node.id]
        return aliases.get(node.id)
    return None


def is_rpc_receiver(node: ast.expr) -> bool:
    """True when ``node`` names a shard backend or wire link — e.g.
    ``self.link``, ``backend``, ``self.backends[s]``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute) and node.attr in RPC_RECEIVERS:
            return True
        node = node.value
    return isinstance(node, ast.Name) and node.id in RPC_RECEIVERS


def self_attr_name(node: ast.expr) -> str | None:
    """``attr`` when ``node`` is exactly ``self.<attr>``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class ModulePass:
    """What one walk over a module accumulates across its functions."""

    def __init__(self, rules: dict, path: str, source_lines: list[str]):
        self.rules = rules
        self.path = path
        self.lines = source_lines
        self.problems: list[str] = []
        #: (callee name, calling function, latches lexically held there)
        self.calls: list[tuple[str, str, tuple[str, ...]]] = []
        #: ``self.<name>`` loads outside call position
        self.references: set[str] = set()
        #: helper name -> latches its callers are known to hold
        self.helpers: dict[str, list[str]] = {}

    def latched_helpers(self, defined: set[str]) -> dict[str, list[str]]:
        """Private functions all of whose call sites hold a latch the
        module's rules name: the largest set closed under "called under
        the latch, or from a member of the set"."""
        helpers: dict[str, list[str]] = {}
        for rank_name in sorted(set(self.rules.values()), key=RANKS.__getitem__):
            members = {
                name for name in defined
                if name.startswith("_") and not name.startswith("__")
                and name not in self.references
                and any(callee == name for callee, _caller, _held in self.calls)
            }
            while True:
                unlatched = {
                    callee for callee, caller, held in self.calls
                    if callee in members
                    and rank_name not in held and caller not in members
                }
                if not unlatched:
                    break
                members -= unlatched
            for name in members:
                helpers.setdefault(name, []).append(rank_name)
        return helpers


class FunctionChecker(ast.NodeVisitor):
    """Walks one function body tracking the lexical latch stack."""

    def __init__(self, module: ModulePass, name: str):
        self.module = module
        self.name = name
        self.rules = module.rules
        self.path = module.path
        self.lines = module.lines
        self.problems = module.problems
        # rank names, acquisition order; a helper starts with its callers'
        self.held: list[str] = list(module.helpers.get(name, ()))
        self.aliases: dict = {}  # local name -> rank name
        self.check_rpc = self.path in RPC_FILES

    # ------------------------------------------------------------ plumbing

    def report(self, node: ast.AST, message: str) -> None:
        line = self.lines[node.lineno - 1] if node.lineno <= len(self.lines) else ""
        if "latch-free" in line or "latch-ok" in line:
            return  # reviewed waiver
        self.problems.append(f"{self.path}:{node.lineno}: {message}")

    def holds(self, rank_name: str) -> bool:
        return rank_name in self.held

    # --------------------------------------------------------- latch stack

    def visit_With(self, node: ast.With) -> None:
        entered = []
        for item in node.items:
            rank_name = latch_rank_of(item.context_expr, self.aliases, self.path)
            if rank_name is None:
                continue
            rank = RANKS[rank_name]
            held_ranks = [RANKS[name] for name in self.held]
            if held_ranks and rank < max(held_ranks) and rank_name not in self.held:
                self.report(
                    node,
                    f"acquires {rank_name}({rank}) while holding "
                    f"{self.held[-1]}({held_ranks[-1]}) — latch order violation",
                )
            self.held.append(rank_name)
            entered.append(rank_name)
        for statement in node.body:
            self.visit(statement)
        for _ in entered:
            self.held.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        # Track local aliases of latch expressions (latch = table.latch)
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            rank_name = latch_rank_of(node.value, self.aliases, self.path)
            if rank_name is not None:
                self.aliases[node.targets[0].id] = rank_name
        for target in node.targets:
            self.check_mutation_target(target)
        self.visit(node.value)

    # ---------------------------------------------------------- mutations

    def protected_attr(self, node: ast.expr) -> str | None:
        """The registered attribute a mutation of ``node`` touches."""
        attr = self_attr_name(node)
        if attr is not None and attr in self.rules:
            return attr
        if isinstance(node, ast.Subscript):
            return self.protected_attr(node.value)
        return None

    def check_mutation_target(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.check_mutation_target(element)
            return
        attr = None
        if isinstance(target, ast.Subscript):
            attr = self.protected_attr(target.value)
        elif isinstance(target, ast.Attribute):
            name = self_attr_name(target)
            if name in self.rules:
                attr = name
        if attr is not None:
            self.require_latch(target, attr)

    def require_latch(self, node: ast.AST, attr: str) -> None:
        needed = self.rules[attr]
        if not self.holds(needed):
            self.report(
                node,
                f"mutates self.{attr} without holding the {needed} latch",
            )

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.check_mutation_target(node.target)
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self.check_mutation_target(target)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATORS:
            attr = self.protected_attr(func.value)
            if attr is not None:
                self.require_latch(node, attr)
        if self.held:
            name = None
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            if name in SUSPEND_CALLS:
                self.report(
                    node,
                    f"calls suspension point {name}() while holding the "
                    f"{self.held[-1]} latch — the waker may need that latch",
                )
        if (
            self.held
            and isinstance(func, ast.Attribute)
            and func.attr in WAL_CALLS
            and (
                (isinstance(func.value, ast.Attribute)
                 and func.value.attr in WAL_RECEIVERS)
                or (isinstance(func.value, ast.Name)
                    and func.value.id in WAL_RECEIVERS)
            )
        ):
            self.report(
                node,
                f"WAL I/O {func.attr}() while holding the "
                f"{self.held[-1]} latch — log writes and flushes must "
                "run outside latched sections",
            )
        if (
            self.check_rpc
            and self.held
            and isinstance(func, ast.Attribute)
            and is_rpc_receiver(func.value)
        ):
            self.report(
                node,
                f"blocking RPC {func.attr}() while holding the "
                f"{self.held[-1]} latch — remote round trips must not "
                "stall local latch holders",
            )
        # The callee position is not a reference: record the call site
        # (for the caller-holds-the-latch helper check) and walk the rest.
        if isinstance(func, ast.Attribute):
            self.module.calls.append((func.attr, self.name, tuple(self.held)))
            self.visit(func.value)
        else:
            self.visit(func)
        for argument in node.args:
            self.visit(argument)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load) and self_attr_name(node) is not None:
            self.module.references.add(node.attr)
        self.generic_visit(node)

    def visit_Await(self, node: ast.Await) -> None:
        if self.held:
            self.report(
                node,
                f"awaits while holding the {self.held[-1]} latch — "
                "suspension under latch deadlocks by construction",
            )
        self.generic_visit(node)

    # Nested defs get their own checker: a closure does not inherit the
    # enclosing function's lexical latch context at call time.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        check_function(node, self.module)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]


def check_function(node: ast.AST, module: ModulePass) -> None:
    checker = FunctionChecker(module, node.name)  # type: ignore[attr-defined]
    for statement in node.body:  # type: ignore[attr-defined]
        checker.visit(statement)


def check_file(path: str, rules: dict) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source, filename=path)
    relative = os.path.relpath(path, REPO_ROOT)
    functions: list[ast.AST] = []

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Constructors mutate freely: the object is not published
                # to other threads until __init__ returns.
                if child.name != "__init__":
                    functions.append(child)
            else:
                walk(child)

    walk(tree)
    # First walk: collect every call site; its findings are discarded.
    # Second walk: check, with each caller-holds-the-latch helper
    # starting out under the latch its call sites proved.
    survey = ModulePass(rules, relative, source.splitlines())
    for function in functions:
        check_function(function, survey)
    verdict = ModulePass(rules, relative, survey.lines)
    verdict.helpers = survey.latched_helpers(
        {function.name for function in functions}  # type: ignore[attr-defined]
    )
    for function in functions:
        check_function(function, verdict)
    return verdict.problems


def main(argv: list[str]) -> int:
    if argv:
        targets = {os.path.relpath(os.path.abspath(p), REPO_ROOT): p for p in argv}
        selected = {
            rel: (path, DEFAULT_RULES.get(rel, {}))
            for rel, path in targets.items()
        }
    else:
        selected = {
            rel: (os.path.join(REPO_ROOT, rel), rules)
            for rel, rules in DEFAULT_RULES.items()
        }
    all_problems: list[str] = []
    for rel, (path, rules) in sorted(selected.items()):
        all_problems.extend(check_file(path, rules))
    if all_problems:
        print(f"latch discipline: {len(all_problems)} problem(s)")
        for problem in all_problems:
            print(f"  {problem}")
        return 1
    print(f"latch discipline: {len(selected)} file(s) clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
