"""Interprocedural lock-order analysis.

This is the layer the PR-2 checkers were missing: LD001/LD002 judge one
function at a time, while the bugs that actually bit the service cross
function boundaries — a read lock acquired in one helper and released
in its caller, a ``Future.result()`` that blocks while locks taken three frames up are
still held.  The analysis here:

1. discovers every lock-like object in the project (a **lock
   registry**: ``threading.Lock``/``RLock``/``Condition``/
   ``Semaphore``/``ReadWriteLock`` attributes, class-level locks,
   function-local locks, and *collections* of locks such as a dict of
   per-shard locks), each with a stable dotted key;
2. simulates each function's statements in order, tracking the set of
   held locks through ``with`` blocks, bare ``acquire*``/``release*``
   calls, try/finally unwinds, and calls whose callees *escape* locks
   back to the caller (summaries are iterated to a fixpoint);
3. propagates held-lock sets across call edges — including closures
   passed as arguments and closures invoked through callee parameters
   (the ``_run_exclusive(lambda: ...)`` pattern), but **not** across
   executor/thread spawn edges, where a new thread starts with nothing
   held;
4. builds the **lock-order graph**: an edge ``A → B`` means some
   thread may acquire ``B`` while holding ``A``.  Acquiring several
   members of one lock collection inside a ``sorted(...)`` loop yields
   an *ordered* self-edge (internally ranked, deadlock-free); an
   unsorted loop yields an unordered self-edge, which is a cycle.

The graph and the accompanying blocking/escape records feed the LK001–
LK003 rules (:mod:`repro.analysis.checkers.lockorder`) and the runtime
sanitizer's cross-validation (:mod:`repro.sanitizer.crossval`): an edge
the sanitizer observes at runtime that this analysis cannot explain is
an analyzer blind spot and fails the run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.astutil import (
    dotted_name,
    iter_classes,
    iter_functions,
    ordered_calls,
    unwind_release_names,
    walk_within_function,
)
from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    ResolvedCall,
    build_call_graph,
)
from repro.analysis.checker import ModuleInfo, iter_python_files, load_module

__all__ = [
    "BlockingRecord",
    "EdgeWitness",
    "EscapeRecord",
    "LockAnalysis",
    "LockEdge",
    "LockKey",
    "LockOrderGraph",
    "analyze_locks",
    "build_lock_order_graph",
]

#: A held lock: ``(key symbol, mode)`` where mode is read/write/lock.
Held = Tuple[str, str]

FACTORY_KINDS: Dict[str, str] = {
    "Lock": "mutex",
    "RLock": "rmutex",
    "Condition": "condition",
    "Semaphore": "semaphore",
    "BoundedSemaphore": "semaphore",
    "ReadWriteLock": "rwlock",
    "SanitizedLock": "mutex",
    "SanitizedReadWriteLock": "rwlock",
}

ACQUIRE_MODES: Dict[str, str] = {
    "acquire": "lock",
    "acquire_read": "read",
    "acquire_write": "write",
}
RELEASE_MODES: Dict[str, str] = {
    "release": "lock",
    "release_read": "read",
    "release_write": "write",
}
WITH_CTX_MODES: Dict[str, str] = {
    "read_locked": "read",
    "write_locked": "write",
}
RELEASE_NAME_FOR_MODE: Dict[str, str] = {
    "lock": "release",
    "read": "release_read",
    "write": "release_write",
}


@dataclass(frozen=True)
class LockKey:
    """One lock-like object (or collection of them) in the project."""

    symbol: str
    kind: str  # mutex | rmutex | rwlock | condition | semaphore
    collection: bool = False


@dataclass(frozen=True)
class LockEdge:
    """``src`` held while ``dst`` acquired; ordered self-edges are the
    sorted-collection pattern and do not count as cycles."""

    src: str
    dst: str
    ordered: bool = False


@dataclass(frozen=True)
class EdgeWitness:
    """Where one lock-order edge was established."""

    path: str
    line: int
    symbol: str
    note: str = ""


class LockOrderGraph:
    """The project's lock-order digraph with per-edge witnesses."""

    def __init__(self) -> None:
        self.edges: Dict[LockEdge, EdgeWitness] = {}
        self.keys: Dict[str, LockKey] = {}

    def add_edge(self, edge: LockEdge, witness: EdgeWitness) -> None:
        """Record an edge, keeping the first witness seen."""
        self.edges.setdefault(edge, witness)

    def has_edge(
        self, src: str, dst: str, ordered: Optional[bool] = None
    ) -> bool:
        """Whether an edge exists (any orderedness unless specified)."""
        for edge in self.edges:
            if edge.src != src or edge.dst != dst:
                continue
            if ordered is None or edge.ordered == ordered:
                return True
        return False

    def cycles(
        self, restrict: Optional[Set[str]] = None
    ) -> List[List[str]]:
        """Lock-order cycles, each as a sorted list of key symbols.

        Ordered self-edges (sorted-collection acquisition) are not
        cycles; unordered self-edges are — unless the key is a
        re-entrant mutex (``threading.RLock``), where re-acquiring
        while held is the documented contract, not a deadlock.
        ``restrict`` limits the graph to the given keys (used by
        runtime cross-validation, which can only observe instrumented
        locks).
        """
        nodes: Set[str] = set()
        adjacency: Dict[str, Set[str]] = {}
        self_cycles: Set[str] = set()
        for edge in self.edges:
            if restrict is not None and (
                edge.src not in restrict or edge.dst not in restrict
            ):
                continue
            nodes.add(edge.src)
            nodes.add(edge.dst)
            if edge.src == edge.dst:
                key = self.keys.get(edge.src)
                reentrant = key is not None and key.kind == "rmutex"
                if not edge.ordered and not reentrant:
                    self_cycles.add(edge.src)
                continue
            adjacency.setdefault(edge.src, set()).add(edge.dst)
        cycles = [[key] for key in sorted(self_cycles)]
        for scc in _strongly_connected(sorted(nodes), adjacency):
            if len(scc) > 1:
                cycles.append(sorted(scc))
        return cycles

    def witness(self, src: str, dst: str) -> Optional[EdgeWitness]:
        """The witness of the (preferably unordered) ``src → dst`` edge."""
        best: Optional[EdgeWitness] = None
        for edge, witness in sorted(
            self.edges.items(), key=lambda kv: (kv[0].src, kv[0].dst)
        ):
            if edge.src == src and edge.dst == dst:
                if not edge.ordered:
                    return witness
                best = best or witness
        return best

    def as_dict(self) -> dict:
        """JSON-ready form (used by the stress gate artifacts)."""
        return {
            "keys": [
                {
                    "symbol": key.symbol,
                    "kind": key.kind,
                    "collection": key.collection,
                }
                for key in sorted(
                    self.keys.values(), key=lambda k: k.symbol
                )
            ],
            "edges": [
                {
                    "src": edge.src,
                    "dst": edge.dst,
                    "ordered": edge.ordered,
                    "at": "%s:%d" % (witness.path, witness.line),
                    "symbol": witness.symbol,
                }
                for edge, witness in sorted(
                    self.edges.items(),
                    key=lambda kv: (kv[0].src, kv[0].dst, kv[0].ordered),
                )
            ],
            "cycles": self.cycles(),
        }


def _strongly_connected(
    nodes: Sequence[str], adjacency: Dict[str, Set[str]]
) -> List[List[str]]:
    """Tarjan's SCC algorithm, iterative and deterministic."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    result: List[List[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = sorted(adjacency.get(node, ()))
            for position in range(child_index, len(children)):
                child = children[position]
                if child not in index:
                    work[-1] = (node, position + 1)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                result.append(component)

    for node in nodes:
        if node not in index:
            strongconnect(node)
    return result


# -- lock registry -------------------------------------------------------------


class LockRegistry:
    """Every lock-like object in the module set, keyed by symbol."""

    def __init__(self) -> None:
        self.keys: Dict[str, LockKey] = {}
        self._by_name: Dict[str, List[str]] = {}

    def add(self, symbol: str, kind: str, collection: bool) -> None:
        if symbol in self.keys:
            return
        key = LockKey(symbol=symbol, kind=kind, collection=collection)
        self.keys[symbol] = key
        self._by_name.setdefault(symbol.rsplit(".", 1)[-1], []).append(
            symbol
        )

    def get(self, symbol: str) -> Optional[LockKey]:
        return self.keys.get(symbol)

    def candidates(self, bare_name: str) -> List[str]:
        """Key symbols whose attribute/variable name matches."""
        return sorted(self._by_name.get(bare_name, []))

    @classmethod
    def build(cls, modules: Sequence[ModuleInfo]) -> "LockRegistry":
        registry = cls()
        for module in modules:
            registry._scan_module(module)
        return registry

    def _scan_module(self, module: ModuleInfo) -> None:
        package = module.package
        class_quals: Dict[int, str] = {}
        for cls_qual, cls in iter_classes(module.tree):
            class_quals[id(cls)] = cls_qual
            for stmt in cls.body:
                self._scan_assign(
                    stmt, "%s.%s" % (package, cls_qual) if package else cls_qual
                )
        for qual, func, cls in iter_functions(module.tree):
            owner_class = (
                class_quals.get(id(cls)) if cls is not None else None
            )
            for node in walk_within_function(func):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                described = _lock_value(node.value)
                if described is None:
                    continue
                kind, collection = described
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in ("self", "cls")
                        and owner_class is not None
                    ):
                        owner = (
                            "%s.%s" % (package, owner_class)
                            if package
                            else owner_class
                        )
                        self.add(
                            "%s.%s" % (owner, target.attr), kind, collection
                        )
                    elif isinstance(target, ast.Name):
                        scope = "%s.%s" % (package, qual) if package else qual
                        self.add(
                            "%s.%s" % (scope, target.id), kind, collection
                        )
        for stmt in module.tree.body:
            self._scan_assign(stmt, package or "<module>")

    def _scan_assign(self, stmt: ast.stmt, owner: str) -> None:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            return
        described = _lock_value(
            stmt.value if stmt.value is not None else None
        )
        if described is None:
            return
        kind, collection = described
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        for target in targets:
            if isinstance(target, ast.Name):
                self.add("%s.%s" % (owner, target.id), kind, collection)


def _lock_value(
    value: Optional[ast.expr],
) -> Optional[Tuple[str, bool]]:
    """``(kind, is_collection)`` when an expression builds lock(s)."""
    if value is None:
        return None
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        if name is not None:
            kind = FACTORY_KINDS.get(name.rsplit(".", 1)[-1])
            if kind is not None:
                return (kind, False)
    if isinstance(value, (ast.DictComp, ast.ListComp, ast.SetComp)):
        element = (
            value.value if isinstance(value, ast.DictComp) else value.elt
        )
        inner = _lock_value(element)
        if inner is not None:
            return (inner[0], True)
    return None


# -- per-function records ------------------------------------------------------


@dataclass(frozen=True)
class AcquireEvent:
    """One lock acquisition, with the locally held set before it."""

    keys: Tuple[str, ...]
    mode: str
    line: int
    col: int
    held: FrozenSet[Held]
    #: Acquisition of a collection member inside a loop (the loop
    #: repeats, so the acquisition orders against itself).
    looped: bool
    #: The loop iterates ``sorted(...)`` — internally ranked.
    loop_ordered: bool


@dataclass(frozen=True)
class BlockingEvent:
    """A potentially blocking call, with the locally held set."""

    desc: str
    line: int
    col: int
    bounded: bool
    receiver_keys: FrozenSet[str]
    held: FrozenSet[Held]


@dataclass(frozen=True)
class CallEvent:
    """A resolved call site, with held set and unwind protection."""

    resolved: ResolvedCall
    line: int
    col: int
    held: FrozenSet[Held]
    #: Release-method names reachable on the unwind path around this
    #: call (enclosing try finally/except, or the try that immediately
    #: follows the statement — the idiomatic acquire-then-try shape).
    protected_names: FrozenSet[str]


@dataclass
class FunctionLockSummary:
    """What one function does to locks, from its caller's viewpoint."""

    symbol: str
    #: Locks still held when the function returns normally.
    escapes: Set[Held] = field(default_factory=set)
    #: Caller-held locks the function releases (handoff helpers).
    releases_external: Set[Held] = field(default_factory=set)
    #: Parameter name → held set when the parameter is invoked.
    param_holds: Dict[str, Set[Held]] = field(default_factory=dict)
    acquires: List[AcquireEvent] = field(default_factory=list)
    blocking: List[BlockingEvent] = field(default_factory=list)
    calls: List[CallEvent] = field(default_factory=list)
    #: Line of the first escaping acquisition, for messages.
    first_escape_line: int = 0

    def state(self) -> Tuple:
        """Comparable fixpoint state."""
        return (
            tuple(sorted(self.escapes)),
            tuple(sorted(self.releases_external)),
            tuple(
                (name, tuple(sorted(holds)))
                for name, holds in sorted(self.param_holds.items())
            ),
        )


@dataclass(frozen=True)
class BlockingRecord:
    """LK002 raw material: a blocking call executed under locks."""

    path: str
    line: int
    col: int
    symbol: str
    desc: str
    held_keys: Tuple[str, ...]


@dataclass(frozen=True)
class EscapeRecord:
    """LK003 raw material: an unprotected escaping-acquire call site."""

    path: str
    line: int
    col: int
    symbol: str
    callee: str
    keys: Tuple[str, ...]


@dataclass
class LockAnalysis:
    """Everything the LK rules and the sanitizer cross-check consume."""

    graph: LockOrderGraph
    registry: LockRegistry
    callgraph: CallGraph
    summaries: Dict[str, FunctionLockSummary]
    held_in: Dict[str, Set[Held]]
    blocking: List[BlockingRecord]
    unprotected_escapes: List[EscapeRecord]


# -- simulation ----------------------------------------------------------------


class _Simulator:
    """Simulates one function's lock behaviour in statement order."""

    def __init__(
        self,
        info: FunctionInfo,
        registry: LockRegistry,
        callgraph: CallGraph,
        summaries: Dict[str, FunctionLockSummary],
    ) -> None:
        self.info = info
        self.registry = registry
        self.callgraph = callgraph
        self.summaries = summaries
        self.summary = FunctionLockSummary(symbol=info.symbol)
        self.held: List[Held] = []
        self.locally_acquired: Set[Held] = set()
        self.var_keys: Dict[str, Set[str]] = {}
        self._ordered_loop_depth = 0
        self._unordered_loop_depth = 0
        self._protect_stack: List[Set[str]] = []
        self._finally_stack: List[List[Tuple[Set[str], str]]] = []
        self._followup_names: Set[str] = set()
        self._future_lists, self._future_vars = _future_evidence(info.node)

    # -- entry -----------------------------------------------------------------

    def run(self) -> FunctionLockSummary:
        node = self.info.node
        if isinstance(node, ast.Lambda):
            self._process_expr(node.body)
        else:
            self._visit_block(node.body)
        self._record_escape()
        return self.summary

    # -- held-set helpers ------------------------------------------------------

    def _held_frozen(self) -> FrozenSet[Held]:
        return frozenset(self.held)

    def _add_held(self, keys: Sequence[str], mode: str) -> List[Held]:
        added = []
        for key in keys:
            held = (key, mode)
            self.held.append(held)
            self.locally_acquired.add(held)
            added.append(held)
        return added

    def _remove_held(self, key: str, mode: str) -> bool:
        held = (key, mode)
        if held in self.held:
            self.held.remove(held)
            return True
        return False

    def _record_escape(self, line: int = 0) -> None:
        escaping = {
            held for held in self.held if held in self.locally_acquired
        }
        for releases in self._finally_stack:
            for keys, mode in releases:
                escaping = {
                    held
                    for held in escaping
                    if not (held[0] in keys and held[1] == mode)
                }
        if escaping and not self.summary.escapes:
            self.summary.first_escape_line = line
        self.summary.escapes |= escaping

    # -- statement walk --------------------------------------------------------

    def _visit_block(self, stmts: Sequence[ast.stmt]) -> None:
        for position, stmt in enumerate(stmts):
            following = stmts[position + 1 : position + 2]
            self._followup_names = (
                unwind_release_names(following[0])
                if following and isinstance(following[0], ast.Try)
                else set()
            )
            self._visit_stmt(stmt)
        self._followup_names = set()

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._visit_with(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_for(stmt)
        elif isinstance(stmt, ast.While):
            self._process_expr(stmt.test)
            self._visit_block(stmt.body)
            self._visit_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._visit_if(stmt)
        elif isinstance(stmt, ast.Try):
            self._visit_try(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._process_expr(stmt.value)
            self._record_escape(stmt.lineno)
        elif isinstance(stmt, ast.Assign):
            self._process_expr(stmt.value)
            self._propagate_assign(stmt)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            if stmt.value is not None:
                self._process_expr(stmt.value)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._process_expr(child)

    def _visit_with(self, stmt) -> None:
        guards: List[Held] = []
        for item in stmt.items:
            guard = self._with_guard(item.context_expr)
            if guard is None:
                self._process_expr(item.context_expr)
                continue
            keys, mode = guard
            self._emit_acquire(
                keys,
                mode,
                item.context_expr.lineno,
                item.context_expr.col_offset,
            )
            guards.extend(self._add_held(keys, mode))
        if guards:
            release = [
                ({key}, mode) for key, mode in guards
            ]
            self._finally_stack.append(release)
        try:
            self._visit_block(stmt.body)
        finally:
            if guards:
                self._finally_stack.pop()
            for key, mode in guards:
                self._remove_held(key, mode)

    def _with_guard(
        self, expr: ast.expr
    ) -> Optional[Tuple[List[str], str]]:
        """``(keys, mode)`` when a with-item guards a known lock."""
        if isinstance(expr, ast.Call) and isinstance(
            expr.func, ast.Attribute
        ):
            mode = WITH_CTX_MODES.get(expr.func.attr)
            if mode is not None:
                keys = self._keys_for_expr(expr.func.value)
                if keys:
                    return (keys, mode)
                return ([self._synthetic_key(expr.func.value)], mode)
        keys = self._keys_for_expr(expr)
        if keys:
            key = self.registry.get(keys[0])
            mode = "lock"
            if key is not None and key.kind == "rwlock":
                mode = "write"
            return (keys, mode)
        return None

    def _visit_for(self, stmt) -> None:
        self._process_expr(stmt.iter)
        ordered = any(
            isinstance(sub, ast.Name) and sub.id == "sorted"
            for sub in ast.walk(stmt.iter)
        )
        # Loop targets iterating a variable that holds lock objects
        # (the ``for lock in acquired`` release pattern) carry keys.
        source_keys = self._iter_source_keys(stmt.iter)
        if source_keys:
            for name in _target_names(stmt.target):
                self.var_keys[name] = set(source_keys)
        if ordered:
            self._ordered_loop_depth += 1
        else:
            self._unordered_loop_depth += 1
        try:
            self._visit_block(stmt.body)
            self._visit_block(stmt.orelse)
        finally:
            if ordered:
                self._ordered_loop_depth -= 1
            else:
                self._unordered_loop_depth -= 1

    def _iter_source_keys(self, expr: ast.expr) -> Set[str]:
        inner = expr
        while (
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Name)
            and inner.func.id in ("sorted", "reversed", "list", "iter")
            and inner.args
        ):
            inner = inner.args[0]
        if isinstance(inner, ast.Name):
            return set(self.var_keys.get(inner.id, set()))
        return set()

    def _visit_if(self, stmt: ast.If) -> None:
        before_test = list(self.held)
        self._process_expr(stmt.test)
        test_acquired = [h for h in self.held if h not in before_test]
        with_test = list(self.held)
        self._visit_block(stmt.body)
        body_exit = list(self.held)
        # The else-branch runs when a boolean acquire in the test
        # failed, so it starts without the test's acquisitions.
        self.held = [h for h in with_test if h not in test_acquired]
        self._visit_block(stmt.orelse)
        orelse_exit = list(self.held)
        merged = list(body_exit)
        for held in orelse_exit:
            if merged.count(held) < orelse_exit.count(held):
                merged.append(held)
        self.held = merged

    def _visit_try(self, stmt: ast.Try) -> None:
        self._protect_stack.append(unwind_release_names(stmt))
        finally_releases = self._finally_release_effects(stmt)
        if finally_releases:
            self._finally_stack.append(finally_releases)
        try:
            self._visit_block(stmt.body)
        finally:
            if finally_releases:
                self._finally_stack.pop()
            self._protect_stack.pop()
        after_body = list(self.held)
        exits: List[List[Held]] = []
        for handler in stmt.handlers:
            self.held = list(after_body)
            self._visit_block(handler.body)
            if not _terminates(handler.body):
                exits.append(list(self.held))
        self.held = list(after_body)
        self._visit_block(stmt.orelse)
        exits.append(list(self.held))
        merged: List[Held] = []
        for branch in exits:
            for held in branch:
                if merged.count(held) < branch.count(held):
                    merged.append(held)
        self.held = merged
        self._visit_block(stmt.finalbody)

    def _finally_release_effects(
        self, stmt: ast.Try
    ) -> List[Tuple[Set[str], str]]:
        effects: List[Tuple[Set[str], str]] = []
        for node in stmt.finalbody:
            for sub in ast.walk(node):
                if not (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in RELEASE_MODES
                ):
                    continue
                keys = self._keys_for_expr(sub.func.value)
                if keys:
                    effects.append(
                        (set(keys), RELEASE_MODES[sub.func.attr])
                    )
        return effects

    def _propagate_assign(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1:
            return
        target = stmt.targets[0]
        keys: Set[str] = set()
        value = stmt.value
        if isinstance(value, ast.Call):
            resolved = self.callgraph.resolved.get(id(value))
            if resolved is not None:
                for callee in resolved.callees:
                    callee_summary = self.summaries.get(callee)
                    if callee_summary is not None:
                        keys |= {k for k, _m in callee_summary.escapes}
        else:
            keys |= set(self._keys_for_expr(value))
        if not keys:
            return
        for name in _target_names(target):
            self.var_keys[name] = keys

    # -- expression / call handling --------------------------------------------

    def _process_expr(self, expr: ast.expr) -> None:
        for call in ordered_calls(_walk_expr(expr)):
            self._handle_call(call)

    def _handle_call(self, call: ast.Call) -> None:
        func = call.func
        own_name = _function_name(self.info.node)
        if isinstance(func, ast.Attribute):
            method = func.attr
            if method in ACQUIRE_MODES and method != own_name:
                keys = self._keys_for_expr(func.value)
                if not keys:
                    keys = [self._synthetic_key(func.value)]
                self._emit_acquire(
                    keys,
                    ACQUIRE_MODES[method],
                    call.lineno,
                    call.col_offset,
                )
                self._add_held(keys, ACQUIRE_MODES[method])
                return
            if method in RELEASE_MODES and method != own_name:
                keys = self._keys_for_expr(func.value)
                if not keys:
                    keys = [self._synthetic_key(func.value)]
                mode = RELEASE_MODES[method]
                for key in keys:
                    if not self._remove_held(key, mode):
                        self.summary.releases_external.add((key, mode))
                return
            if method == "append" and isinstance(func.value, ast.Name):
                gathered: Set[str] = set()
                for arg in call.args:
                    for sub in ast.walk(arg):
                        gathered |= set(self._keys_for_expr(sub))
                if gathered:
                    existing = self.var_keys.setdefault(
                        func.value.id, set()
                    )
                    existing |= gathered
                return
        if self._handle_blocking(call):
            return
        if (
            isinstance(func, ast.Name)
            and func.id in self.info.params
            and func.id not in self.var_keys
        ):
            holds = self.summary.param_holds.setdefault(func.id, set())
            holds |= set(self.held)
            return
        resolved = self.callgraph.resolved.get(id(call))
        if resolved is None:
            return
        protected = set(self._followup_names)
        for names in self._protect_stack:
            protected |= names
        self.summary.calls.append(
            CallEvent(
                resolved=resolved,
                line=call.lineno,
                col=call.col_offset,
                held=self._held_frozen(),
                protected_names=frozenset(protected),
            )
        )
        # Synchronous callees may escape locks into this frame or
        # release locks this frame holds.
        for callee in resolved.callees:
            callee_summary = self.summaries.get(callee)
            if callee_summary is None:
                continue
            for key, mode in sorted(callee_summary.escapes):
                self._add_held([key], mode)
            for key, mode in sorted(callee_summary.releases_external):
                self._remove_held(key, mode)
        # A spawned task that releases locks this frame holds is a
        # handoff (the open-loop generator's semaphore pattern).
        for spawned in resolved.spawn_args:
            spawn_summary = self.summaries.get(spawned)
            if spawn_summary is None:
                continue
            for key, mode in sorted(spawn_summary.releases_external):
                self._remove_held(key, mode)

    def _handle_blocking(self, call: ast.Call) -> bool:
        func = call.func
        timeout_kw = any(kw.arg == "timeout" for kw in call.keywords)
        name = dotted_name(func)
        if name in ("time.sleep", "sleep"):
            self._emit_blocking(
                "time.sleep()",
                call,
                bounded=False,
                receiver_keys=frozenset(),
            )
            return True
        if name in ("wait", "futures.wait", "concurrent.futures.wait"):
            if not timeout_kw and len(call.args) < 2:
                self._emit_blocking(
                    "futures.wait() with no timeout",
                    call,
                    bounded=False,
                    receiver_keys=frozenset(),
                )
                return True
            return False
        if isinstance(func, ast.Attribute):
            method = func.attr
            if method == "result" and not call.args and not timeout_kw:
                if self._is_future_receiver(func.value):
                    self._emit_blocking(
                        "Future.result() with no timeout",
                        call,
                        bounded=False,
                        receiver_keys=frozenset(),
                    )
                    return True
                return False
            if method in ("wait", "wait_for"):
                receiver_keys = frozenset(
                    self._keys_for_expr(func.value)
                )
                condition_like = any(
                    (key := self.registry.get(symbol)) is not None
                    and key.kind == "condition"
                    for symbol in receiver_keys
                )
                if not condition_like:
                    return False
                bounded = timeout_kw or (
                    method == "wait_for" and len(call.args) >= 2
                ) or (method == "wait" and len(call.args) >= 1)
                self._emit_blocking(
                    "Condition.%s()" % method,
                    call,
                    bounded=bounded,
                    receiver_keys=receiver_keys,
                )
                return True
            if (
                method == "join"
                and not call.args
                and not timeout_kw
                and not isinstance(func.value, ast.Constant)
            ):
                self._emit_blocking(
                    "join() with no timeout",
                    call,
                    bounded=False,
                    receiver_keys=frozenset(),
                )
                return True
        return False

    def _is_future_receiver(self, receiver: ast.expr) -> bool:
        if isinstance(receiver, ast.Name):
            return receiver.id in self._future_vars
        if isinstance(receiver, ast.Subscript) and isinstance(
            receiver.value, ast.Name
        ):
            return receiver.value.id in self._future_lists
        return (
            isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Attribute)
            and receiver.func.attr == "submit"
        )

    def _emit_acquire(
        self, keys: Sequence[str], mode: str, line: int, col: int
    ) -> None:
        in_loop = (
            self._ordered_loop_depth > 0
            or self._unordered_loop_depth > 0
        )
        collection_member = any(
            (key := self.registry.get(symbol)) is not None
            and key.collection
            for symbol in keys
        )
        self.summary.acquires.append(
            AcquireEvent(
                keys=tuple(keys),
                mode=mode,
                line=line,
                col=col,
                held=self._held_frozen(),
                looped=in_loop and collection_member,
                loop_ordered=self._ordered_loop_depth > 0,
            )
        )

    def _emit_blocking(
        self,
        desc: str,
        call: ast.Call,
        bounded: bool,
        receiver_keys: FrozenSet[str],
    ) -> None:
        self.summary.blocking.append(
            BlockingEvent(
                desc=desc,
                line=call.lineno,
                col=call.col_offset,
                bounded=bounded,
                receiver_keys=receiver_keys,
                held=self._held_frozen(),
            )
        )

    # -- key resolution --------------------------------------------------------

    def _keys_for_expr(self, expr: ast.expr) -> List[str]:
        if isinstance(expr, ast.Subscript):
            base_keys = self._keys_for_expr(expr.value)
            return [
                symbol
                for symbol in base_keys
                if (key := self.registry.get(symbol)) is not None
                and key.collection
            ]
        if isinstance(expr, ast.Attribute):
            resolver = self.callgraph.resolvers.get(self.info.symbol)
            if resolver is not None:
                receiver = resolver.receiver_class(expr.value)
                if receiver is not None:
                    symbol = "%s.%s" % (receiver, expr.attr)
                    if symbol in self.registry.keys:
                        return [symbol]
            dotted = dotted_name(expr)
            if dotted is not None:
                suffix = "." + dotted
                matches = sorted(
                    symbol
                    for symbol in self.registry.keys
                    if symbol.endswith(suffix)
                )
                if matches:
                    return matches
            return self._candidates_for_name(expr.attr)
        if isinstance(expr, ast.Name):
            if expr.id in self.var_keys:
                return sorted(self.var_keys[expr.id])
            return self._candidates_for_name(expr.id)
        return []

    def _candidates_for_name(self, name: str) -> List[str]:
        candidates = self.registry.candidates(name)
        if len(candidates) <= 1:
            return candidates
        if self.info.class_symbol is not None:
            scoped = [
                symbol
                for symbol in candidates
                if symbol == "%s.%s" % (self.info.class_symbol, name)
            ]
            if scoped:
                return scoped
        return candidates

    def _synthetic_key(self, expr: ast.expr) -> str:
        name = dotted_name(expr) or "<expr>"
        symbol = "%s.<%s>" % (self.info.module.package, name)
        self.registry.add(symbol, "mutex", False)
        return symbol


def _walk_expr(expr: ast.expr) -> List[ast.AST]:
    """Expression descendants, not descending into lambdas."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Lambda):
            continue
        out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _target_names(target: ast.expr) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(_target_names(element))
        return names
    return []


def _function_name(node: ast.AST) -> str:
    return getattr(node, "name", "<lambda>")


def _terminates(body: Sequence[ast.stmt]) -> bool:
    return bool(body) and isinstance(
        body[-1], (ast.Raise, ast.Return, ast.Continue, ast.Break)
    )


def _future_evidence(node: ast.AST) -> Tuple[Set[str], Set[str]]:
    """Names bound to futures / lists of futures in one scope."""
    future_lists: Set[str] = set()
    future_vars: Set[str] = set()

    def is_submit(value: ast.expr) -> bool:
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "submit"
        )

    if isinstance(node, ast.Lambda):
        return future_lists, future_vars
    for sub in walk_within_function(node):
        if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
            target = sub.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = sub.value
            if is_submit(value):
                future_vars.add(target.id)
            elif isinstance(value, ast.ListComp) and is_submit(value.elt):
                future_lists.add(target.id)
    for sub in ast.walk(node):
        if isinstance(sub, (ast.For, ast.comprehension)):
            iter_expr = sub.iter
            target = sub.target
            if (
                isinstance(iter_expr, ast.Name)
                and iter_expr.id in future_lists
                and isinstance(target, ast.Name)
            ):
                future_vars.add(target.id)
        elif isinstance(
            sub, (ast.ListComp, ast.SetComp, ast.GeneratorExp)
        ):
            for gen in sub.generators:
                if (
                    isinstance(gen.iter, ast.Name)
                    and gen.iter.id in future_lists
                    and isinstance(gen.target, ast.Name)
                ):
                    future_vars.add(gen.target.id)
    return future_lists, future_vars


# -- whole-project analysis ----------------------------------------------------

_FIXPOINT_LIMIT = 12


def analyze_locks(
    modules: Sequence[ModuleInfo],
    callgraph: Optional[CallGraph] = None,
) -> LockAnalysis:
    """Run the full interprocedural lock analysis over the modules.

    ``callgraph`` may be shared (see
    :class:`repro.analysis.checker.ProjectContext`) so every project
    model pays for call resolution once.
    """
    registry = LockRegistry.build(modules)
    if callgraph is None:
        callgraph = build_call_graph(modules)
    summaries: Dict[str, FunctionLockSummary] = {}
    # Phase 1: iterate local summaries to a fixpoint so escaping
    # acquisitions and external releases flow through call chains.
    for _round in range(_FIXPOINT_LIMIT):
        changed = False
        for symbol in sorted(callgraph.functions):
            info = callgraph.functions[symbol]
            summary = _Simulator(
                info, registry, callgraph, summaries
            ).run()
            previous = summaries.get(symbol)
            if previous is None or previous.state() != summary.state():
                changed = True
            summaries[symbol] = summary
        if not changed:
            break
    # Phase 2: propagate held-at-entry sets over call edges.
    held_in: Dict[str, Set[Held]] = {
        symbol: set() for symbol in callgraph.functions
    }
    for _round in range(_FIXPOINT_LIMIT * 4):
        changed = False
        for symbol in sorted(callgraph.functions):
            summary = summaries[symbol]
            base_extra = held_in[symbol]
            for event in summary.calls:
                flowing = set(event.held) | base_extra
                for callee in event.resolved.callees:
                    if callee in held_in and not flowing <= held_in[callee]:
                        held_in[callee] |= flowing
                        changed = True
                for closure in event.resolved.closure_args:
                    if (
                        closure in held_in
                        and not flowing <= held_in[closure]
                    ):
                        held_in[closure] |= flowing
                        changed = True
                for param, closure in event.resolved.param_binds:
                    if closure not in held_in:
                        continue
                    extra = set(flowing)
                    for callee in event.resolved.callees:
                        callee_summary = summaries.get(callee)
                        if callee_summary is not None:
                            extra |= callee_summary.param_holds.get(
                                param, set()
                            )
                        if callee in held_in:
                            extra |= held_in[callee]
                    if not extra <= held_in[closure]:
                        held_in[closure] |= extra
                        changed = True
        if not changed:
            break
    # Phase 3: emit the lock-order graph, blocking records, and
    # unprotected-escape records.
    graph = LockOrderGraph()
    graph.keys = dict(registry.keys)
    blocking: List[BlockingRecord] = []
    for symbol in sorted(callgraph.functions):
        info = callgraph.functions[symbol]
        summary = summaries[symbol]
        ambient = held_in[symbol]
        for event in summary.acquires:
            effective_held = set(event.held) | ambient
            for target in event.keys:
                witness = EdgeWitness(
                    path=info.module.path,
                    line=event.line,
                    symbol=info.qual,
                    note="%s-mode acquisition" % event.mode,
                )
                for source, _mode in sorted(effective_held):
                    graph.add_edge(
                        LockEdge(source, target, ordered=False), witness
                    )
                if event.looped:
                    graph.add_edge(
                        LockEdge(
                            target, target, ordered=event.loop_ordered
                        ),
                        witness,
                    )
        for blocked in summary.blocking:
            if blocked.bounded:
                continue
            effective = {
                key
                for key, _mode in (set(blocked.held) | ambient)
                if key not in blocked.receiver_keys
            }
            if not effective:
                continue
            blocking.append(
                BlockingRecord(
                    path=info.module.path,
                    line=blocked.line,
                    col=blocked.col,
                    symbol=info.qual,
                    desc=blocked.desc,
                    held_keys=tuple(sorted(effective)),
                )
            )
    escapes = _unprotected_escapes(callgraph, summaries)
    return LockAnalysis(
        graph=graph,
        registry=registry,
        callgraph=callgraph,
        summaries=summaries,
        held_in=held_in,
        blocking=blocking,
        unprotected_escapes=escapes,
    )


def _unprotected_escapes(
    callgraph: CallGraph,
    summaries: Dict[str, FunctionLockSummary],
) -> List[EscapeRecord]:
    records: List[EscapeRecord] = []
    for symbol in sorted(callgraph.functions):
        info = callgraph.functions[symbol]
        summary = summaries[symbol]
        for event in summary.calls:
            for callee in event.resolved.callees:
                callee_summary = summaries.get(callee)
                if callee_summary is None or not callee_summary.escapes:
                    continue
                needed = {
                    RELEASE_NAME_FOR_MODE[mode]
                    for _key, mode in callee_summary.escapes
                }
                if needed <= set(event.protected_names):
                    continue
                # Delegation: the caller itself escapes these locks,
                # so its own call sites carry the obligation.
                if callee_summary.escapes <= summary.escapes:
                    continue
                records.append(
                    EscapeRecord(
                        path=info.module.path,
                        line=event.line,
                        col=event.col,
                        symbol=info.qual,
                        callee=callee,
                        keys=tuple(
                            sorted(
                                key
                                for key, _mode in callee_summary.escapes
                            )
                        ),
                    )
                )
    return records


def build_lock_order_graph(
    paths: Sequence[str], root: str | Path = "."
) -> LockOrderGraph:
    """Parse the given paths and return their lock-order graph.

    This is the static half of runtime cross-validation: the sanitizer
    compares the edges it observed against this graph.
    """
    root_path = Path(root).resolve()
    modules: List[ModuleInfo] = []
    for path in iter_python_files(paths, root_path):
        loaded = load_module(path, root_path)
        if isinstance(loaded, ModuleInfo):
            modules.append(loaded)
    return analyze_locks(modules).graph
