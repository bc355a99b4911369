"""A best-effort project call graph for interprocedural checkers.

The per-module checker (LD) judges one function at a time,
which is exactly why the PR-1 lock leak needed a human: the acquire
lived in a read-locking helper and the release in its caller.  This
module builds the call graph those rules need:

* a **symbol table** of every function, method, nested closure, and
  lambda, keyed by its dotted symbol
  (``repro.service.service.QueryService.find``);
* **type-informed resolution** of ``obj.method()`` calls — attribute
  types are inferred from ``__init__`` parameter annotations,
  constructor assignments, and local annotations, so
  ``self.cluster.find(...)`` resolves to ``ShardedCluster.find`` and
  not to every ``find`` in the project;
* **callable arguments**: a locally defined function, bound method, or
  lambda passed into a call is assumed to be invoked by the callee
  (``kind="closure"``), while ``executor.submit(fn, ...)`` and
  ``threading.Thread(target=fn)`` are ``kind="spawn"`` edges — the
  spawned callee runs on another thread, so held-lock sets must *not*
  propagate across them;
* **closure returns**: a function that returns a nested function (the
  ``_shard_mapper`` pattern) transfers its closure to call sites that
  pass the result onward as a callable.

Resolution is deliberately conservative where types are unknown: an
ambiguous method name produces *no* edge rather than every possible
edge, because a fabricated edge would fabricate lock-order cycles.
The runtime sanitizer (:mod:`repro.sanitizer`) cross-validates the
blind spots this policy leaves.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.analysis.astutil import (
    dotted_name,
    iter_classes,
    iter_functions,
    ordered_calls,
    owner_lock_attrs,
    walk_within_function,
)
from repro.analysis.checker import ModuleInfo

__all__ = [
    "CallEdge",
    "CallGraph",
    "FunctionInfo",
    "ResolvedCall",
    "build_call_graph",
]

CallableNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]

#: Executor/thread entry points whose callable argument runs on
#: another thread (held-lock sets reset across these edges).
SPAWN_METHODS = {"submit"}
SPAWN_FACTORIES = {"Thread", "threading.Thread"}

#: Constructor basenames treated as spawns regardless of how they are
#: reached (``threading.Thread``, ``ctx.Process``,
#: ``multiprocessing.Process``): the ``target=`` runs on a fresh
#: thread *or* in a fresh process, so the spawner's held-lock set must
#: not propagate into it.
SPAWN_BASENAMES = {"Thread", "Process"}

#: Method names of builtin containers/strings/files/futures.  A call
#: like ``self._entries.clear()`` must not resolve to a project method
#: that happens to be named ``clear`` — the unique-name fallback below
#: skips these (type-informed resolution is unaffected).
BUILTIN_METHOD_NAMES = {
    "add",
    "append",
    "appendleft",
    "cancel",
    "clear",
    "close",
    "copy",
    "count",
    "decode",
    "discard",
    "encode",
    "endswith",
    "extend",
    "find",
    "flush",
    "format",
    "get",
    "index",
    "insert",
    "items",
    "join",
    "keys",
    "lower",
    "pop",
    "popitem",
    "popleft",
    "read",
    "readline",
    "remove",
    "replace",
    "result",
    "reverse",
    "setdefault",
    "sort",
    "split",
    "splitlines",
    "startswith",
    "strip",
    "update",
    "upper",
    "values",
    "write",
}

#: Lock acquire/release method names are handled by the lock-order
#: analysis directly and never produce call edges.
LOCK_METHOD_NAMES = {
    "acquire",
    "acquire_read",
    "acquire_write",
    "release",
    "release_read",
    "release_write",
    "read_locked",
    "write_locked",
}


@dataclass
class FunctionInfo:
    """One callable in the project: function, method, closure, lambda."""

    #: Fully dotted symbol, e.g. ``repro.service.service.QueryService.find``.
    symbol: str
    #: Qualname within the module, e.g. ``QueryService.find``.
    qual: str
    module: ModuleInfo
    node: CallableNode
    #: Symbol of the innermost enclosing class, or None.
    class_symbol: Optional[str]
    #: Parameter names in declaration order (``self``/``cls`` included).
    params: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class CallEdge:
    """One resolved caller → callee relationship."""

    caller: str
    callee: str
    line: int
    #: ``call`` (synchronous), ``closure`` (callable argument assumed
    #: invoked by the callee), or ``spawn`` (runs on another thread).
    kind: str


@dataclass(frozen=True)
class ResolvedCall:
    """Everything the lock analysis needs about one call site."""

    line: int
    col: int
    #: Synchronously called function symbols (usually one).
    callees: Tuple[str, ...]
    #: Callable-argument symbols assumed invoked by the callee.
    closure_args: Tuple[str, ...]
    #: Callable-argument symbols that run on another thread.
    spawn_args: Tuple[str, ...]
    #: ``(callee_param_name, closure_symbol)`` bindings, when a callable
    #: argument could be matched to a parameter of a resolved callee.
    param_binds: Tuple[Tuple[str, str], ...]


def _annotation_type(node: Optional[ast.expr]) -> Optional[str]:
    """Bare class name an annotation refers to, unwrapping Optional."""
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return None
        return _annotation_type(parsed.body)
    if isinstance(node, ast.Subscript):
        base = _annotation_type(node.value)
        if base == "Optional":
            return _annotation_type(node.slice)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_type(node.left)
        if left is not None and left != "None":
            return left
        return _annotation_type(node.right)
    return None


class _TypeIndex:
    """Class/attribute/variable types inferred from the module set."""

    def __init__(self) -> None:
        #: Bare class name → class symbol (only when project-unique).
        self.classes: Dict[str, str] = {}
        self.ambiguous_classes: set = set()
        #: Class symbol → base-class bare names.
        self.bases: Dict[str, List[str]] = {}
        #: Class symbol → attribute name → bare type name.
        self.attr_types: Dict[str, Dict[str, str]] = {}
        #: ``(class symbol, method name)`` → function symbol.
        self.methods: Dict[Tuple[str, str], str] = {}
        #: Bare function name → module-level function symbols.
        self.functions_by_name: Dict[str, List[str]] = {}

    def register_class(self, symbol: str, node: ast.ClassDef) -> None:
        if node.name in self.classes and self.classes[node.name] != symbol:
            self.ambiguous_classes.add(node.name)
            del self.classes[node.name]
        elif node.name not in self.ambiguous_classes:
            self.classes[node.name] = symbol
        self.bases[symbol] = [
            base
            for base in (_annotation_type(b) for b in node.bases)
            if base is not None
        ]

    def class_symbol(self, bare_name: Optional[str]) -> Optional[str]:
        if bare_name is None:
            return None
        return self.classes.get(bare_name)

    def resolve_method(
        self, class_symbol: str, method: str
    ) -> Optional[str]:
        """Method lookup walking single-level base classes."""
        found = self.methods.get((class_symbol, method))
        if found is not None:
            return found
        for base_name in self.bases.get(class_symbol, []):
            base_symbol = self.classes.get(base_name)
            if base_symbol is not None:
                found = self.methods.get((base_symbol, method))
                if found is not None:
                    return found
        return None

    def attr_type(
        self, class_symbol: Optional[str], attr: str
    ) -> Optional[str]:
        if class_symbol is None:
            return None
        found = self.attr_types.get(class_symbol, {}).get(attr)
        if found is not None:
            return found
        for base_name in self.bases.get(class_symbol, []):
            base_symbol = self.classes.get(base_name)
            if base_symbol is not None:
                found = self.attr_types.get(base_symbol, {}).get(attr)
                if found is not None:
                    return found
        return None


class CallGraph:
    """The resolved call graph over a set of parsed modules."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.edges: List[CallEdge] = []
        self.types = _TypeIndex()
        #: ``id(ast.Call)`` → resolution, for the lock analysis.
        self.resolved: Dict[int, ResolvedCall] = {}
        #: Function symbol → nested-function symbols it returns.
        self.returns_closures: Dict[str, List[str]] = {}
        #: Function symbol → its resolved call sites.
        self.calls_by_function: Dict[str, List[ResolvedCall]] = {}
        #: Function symbol → its resolver (kept for the lock analysis,
        #: which reuses receiver-type inference for lock attributes).
        self.resolvers: Dict[str, "_FunctionResolver"] = {}
        #: Module path → :func:`owner_lock_attrs` index, built on first
        #: use (the FS model only ever asks about the durable modules).
        self._lock_attrs: Dict[str, Dict[int, FrozenSet[str]]] = {}

    def owner_lock_attrs(self, info: FunctionInfo) -> FrozenSet[str]:
        """Lock attributes of the class that owns ``info`` (may be empty)."""
        index = self._lock_attrs.get(info.module.path)
        if index is None:
            index = owner_lock_attrs(info.module.tree)
            self._lock_attrs[info.module.path] = index
        return index.get(id(info.node), frozenset())

    def callees(self, symbol: str) -> List[CallEdge]:
        """Outgoing edges of one function."""
        return [e for e in self.edges if e.caller == symbol]

    def callers(self, symbol: str) -> List[CallEdge]:
        """Incoming edges of one function."""
        return [e for e in self.edges if e.callee == symbol]

    # -- construction ----------------------------------------------------------

    def _index_modules(self, modules: Sequence[ModuleInfo]) -> None:
        for module in modules:
            class_symbols: Dict[int, str] = {}
            class_quals: Dict[int, str] = {}
            for cls_qual, cls in iter_classes(module.tree):
                symbol = _symbol(module, cls_qual)
                class_symbols[id(cls)] = symbol
                class_quals[id(cls)] = cls_qual
                self.types.register_class(symbol, cls)
            for qual, func, cls in iter_functions(module.tree):
                symbol = _symbol(module, qual)
                class_symbol = (
                    class_symbols.get(id(cls)) if cls is not None else None
                )
                info = FunctionInfo(
                    symbol=symbol,
                    qual=qual,
                    module=module,
                    node=func,
                    class_symbol=class_symbol,
                    params=[a.arg for a in _all_args(func.args)],
                )
                self.functions[symbol] = info
                if (
                    cls is not None
                    and class_symbol is not None
                    and qual
                    == "%s.%s" % (class_quals[id(cls)], func.name)
                ):
                    self.types.methods[(class_symbol, func.name)] = symbol
                if cls is None and "." not in qual:
                    self.types.functions_by_name.setdefault(
                        func.name, []
                    ).append(symbol)
                # Lambdas belong to their innermost enclosing function.
                for node in _direct_lambdas(func):
                    lam_symbol = "%s.<lambda:%d>" % (symbol, node.lineno)
                    self.functions[lam_symbol] = FunctionInfo(
                        symbol=lam_symbol,
                        qual="%s.<lambda:%d>" % (qual, node.lineno),
                        module=module,
                        node=node,
                        class_symbol=class_symbol,
                        params=[a.arg for a in _all_args(node.args)],
                    )

    def _index_attr_types(self) -> None:
        for info in list(self.functions.values()):
            if info.class_symbol is None or isinstance(info.node, ast.Lambda):
                continue
            if not info.qual.endswith(".__init__"):
                continue
            param_types: Dict[str, str] = {}
            for arg in _all_args(info.node.args):
                ann = _annotation_type(arg.annotation)
                if ann is not None:
                    param_types[arg.arg] = ann
            attr_types = self.types.attr_types.setdefault(
                info.class_symbol, {}
            )
            for node in walk_within_function(info.node):
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                    ann = _annotation_type(node.annotation)
                    if (
                        ann is not None
                        and isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attr_types[target.attr] = ann
                        continue
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                inferred = self._value_type(value, param_types)
                if inferred is not None:
                    attr_types[target.attr] = inferred

    def _value_type(
        self, value: Optional[ast.expr], param_types: Dict[str, str]
    ) -> Optional[str]:
        if isinstance(value, ast.Name):
            return param_types.get(value.id)
        if isinstance(value, ast.Call):
            name = _annotation_type(value.func)
            if name is not None and name in self.types.classes:
                return name
        if isinstance(value, ast.BoolOp) and isinstance(value.op, ast.Or):
            for part in value.values:
                found = self._value_type(part, param_types)
                if found is not None:
                    return found
        if isinstance(value, ast.IfExp):
            return self._value_type(
                value.body, param_types
            ) or self._value_type(value.orelse, param_types)
        return None

    def _index_closure_returns(self) -> None:
        for symbol, info in self.functions.items():
            if isinstance(info.node, ast.Lambda):
                continue
            nested = {
                child.name: "%s.%s" % (symbol, child.name)
                for child in _direct_nested_defs(info.node)
            }
            returned: List[str] = []
            for node in walk_within_function(info.node):
                if isinstance(node, ast.Return) and isinstance(
                    node.value, ast.Name
                ):
                    closure = nested.get(node.value.id)
                    if closure is not None and closure in self.functions:
                        returned.append(closure)
            if returned:
                self.returns_closures[symbol] = returned

    # -- per-call resolution ---------------------------------------------------

    def _resolve_all(self) -> None:
        for symbol in sorted(self.functions):
            info = self.functions[symbol]
            resolver = _FunctionResolver(self, info)
            self.resolvers[symbol] = resolver
            for call in resolver.iter_calls():
                resolved = resolver.resolve(call)
                if resolved is None:
                    continue
                self.resolved[id(call)] = resolved
                self.calls_by_function.setdefault(symbol, []).append(resolved)
                for callee in resolved.callees:
                    self.edges.append(
                        CallEdge(symbol, callee, call.lineno, "call")
                    )
                for closure in resolved.closure_args:
                    self.edges.append(
                        CallEdge(symbol, closure, call.lineno, "closure")
                    )
                for spawned in resolved.spawn_args:
                    self.edges.append(
                        CallEdge(symbol, spawned, call.lineno, "spawn")
                    )


class _FunctionResolver:
    """Resolves the calls of one function against the project indexes."""

    def __init__(self, graph: CallGraph, info: FunctionInfo) -> None:
        self.graph = graph
        self.info = info
        self.local_types = self._collect_local_types()
        self.nested = self._collect_nested()

    def _collect_local_types(self) -> Dict[str, str]:
        types: Dict[str, str] = {}
        node = self.info.node
        for arg in _all_args(node.args):
            ann = _annotation_type(arg.annotation)
            if ann is not None:
                types[arg.arg] = ann
        if isinstance(node, ast.Lambda):
            return types
        for sub in walk_within_function(node):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target = sub.targets[0]
                if isinstance(target, ast.Name) and isinstance(
                    sub.value, ast.Call
                ):
                    name = _annotation_type(sub.value.func)
                    if name is not None and name in self.graph.types.classes:
                        types[target.id] = name
            elif isinstance(sub, ast.AnnAssign) and isinstance(
                sub.target, ast.Name
            ):
                ann = _annotation_type(sub.annotation)
                if ann is not None:
                    types[sub.target.id] = ann
        return types

    def _collect_nested(self) -> Dict[str, str]:
        """Function names defined in this scope or an enclosing one."""
        nested: Dict[str, str] = {}
        # Walk up the symbol chain: a closure sees its parents' defs.
        symbol = self.info.symbol
        chain = [symbol]
        while "." in symbol:
            symbol = symbol.rsplit(".", 1)[0]
            chain.append(symbol)
        for scope in reversed(chain):
            scope_info = self.graph.functions.get(scope)
            if scope_info is None or isinstance(scope_info.node, ast.Lambda):
                continue
            for child in _direct_nested_defs(scope_info.node):
                nested[child.name] = "%s.%s" % (scope, child.name)
        return nested

    def iter_calls(self) -> List[ast.Call]:
        node = self.info.node
        if isinstance(node, ast.Lambda):
            return ordered_calls(ast.walk(node.body))
        return ordered_calls(walk_within_function(node))

    # -- resolution pieces -----------------------------------------------------

    def _callable_symbol(self, node: ast.expr) -> Optional[str]:
        """Symbol when an expression evidently names a project callable."""
        if isinstance(node, ast.Lambda):
            return "%s.<lambda:%d>" % (self.info.symbol, node.lineno)
        if isinstance(node, ast.Name):
            if node.id in self.nested:
                return self.nested[node.id]
            funcs = self.graph.types.functions_by_name.get(node.id, [])
            if len(funcs) == 1:
                return funcs[0]
            return None
        if isinstance(node, ast.Attribute):
            symbols = self._resolve_attribute_callee(node)
            if len(symbols) == 1:
                return symbols[0]
            return None
        if isinstance(node, ast.Call):
            # ``f(...)`` passed as a callable: the closures f returns.
            inner = self.graph.resolved.get(id(node))
            closures: List[str] = []
            callees: Tuple[str, ...] = ()
            if inner is not None:
                callees = inner.callees
            else:
                callees = tuple(self._resolve_callees(node))
            for callee in callees:
                closures.extend(self.graph.returns_closures.get(callee, []))
            if len(closures) == 1:
                return closures[0]
        return None

    def receiver_class(self, node: ast.expr) -> Optional[str]:
        """Class symbol of an attribute-call receiver, when inferable."""
        types = self.graph.types
        if isinstance(node, ast.Name):
            if node.id in ("self", "cls"):
                return self.info.class_symbol
            local = self.local_types.get(node.id)
            if local is not None:
                return types.class_symbol(local)
            return types.class_symbol(node.id)  # ClassName.method(...)
        if isinstance(node, ast.Attribute):
            owner = self.receiver_class(node.value)
            if owner is not None:
                return types.class_symbol(types.attr_type(owner, node.attr))
        return None

    def receiver_type_name(self, node: ast.expr) -> Optional[str]:
        """Bare type-name evidence for a receiver, if any.

        Distinguishes "typed as a class we did not analyze" from "no
        type information at all": the former must not fall back to
        unique-name resolution, because the real callee lives outside
        the analyzed module set.
        """
        if isinstance(node, ast.Name):
            if node.id in ("self", "cls"):
                return (
                    self.info.class_symbol.rsplit(".", 1)[-1]
                    if self.info.class_symbol is not None
                    else None
                )
            return self.local_types.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = self.receiver_class(node.value)
            if owner is not None:
                return self.graph.types.attr_type(owner, node.attr)
        return None

    def _resolve_attribute_callee(self, func: ast.Attribute) -> List[str]:
        method = func.attr
        receiver_class = self.receiver_class(func.value)
        if receiver_class is not None:
            found = self.graph.types.resolve_method(receiver_class, method)
            return [found] if found is not None else []
        # The receiver is typed, but as a class outside the analyzed
        # module set: the real callee is not here, so resolve to
        # nothing rather than to a same-named local method.
        if self.receiver_type_name(func.value) is not None:
            return []
        # No type information: accept a project-unique method name,
        # otherwise resolve to nothing (a fabricated edge would
        # fabricate lock-order cycles; the runtime sanitizer covers
        # what this policy misses).
        if method in BUILTIN_METHOD_NAMES:
            return []
        candidates = sorted(
            symbol
            for (cls, name), symbol in self.graph.types.methods.items()
            if name == method
        )
        if len(candidates) == 1:
            return candidates
        return []

    def _resolve_callees(self, call: ast.Call) -> List[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in self.nested:
                return [self.nested[func.id]]
            class_symbol = self.graph.types.class_symbol(func.id)
            if class_symbol is not None:
                init = self.graph.types.resolve_method(
                    class_symbol, "__init__"
                )
                return [init] if init is not None else []
            funcs = self.graph.types.functions_by_name.get(func.id, [])
            if len(funcs) == 1:
                return list(funcs)
            return []
        if isinstance(func, ast.Attribute):
            if func.attr in LOCK_METHOD_NAMES:
                return []
            return self._resolve_attribute_callee(func)
        return []

    def resolve(self, call: ast.Call) -> Optional[ResolvedCall]:
        func = call.func
        is_spawn_submit = (
            isinstance(func, ast.Attribute) and func.attr in SPAWN_METHODS
        )
        dotted = (
            dotted_name(func) if not isinstance(func, ast.Lambda) else None
        )
        is_spawn_thread = dotted is not None and (
            dotted in SPAWN_FACTORIES
            or dotted.split(".")[-1] in SPAWN_BASENAMES
        )
        callees = (
            [] if is_spawn_thread else self._resolve_callees(call)
        )
        closure_args: List[str] = []
        spawn_args: List[str] = []
        param_binds: List[Tuple[str, str]] = []
        arg_values: List[Tuple[Optional[str], int, ast.expr]] = []
        for index, arg in enumerate(call.args):
            arg_values.append((None, index, arg))
        for kw in call.keywords:
            arg_values.append((kw.arg, -1, kw.value))
        for kw_name, index, value in arg_values:
            symbol = self._callable_symbol(value)
            if symbol is None:
                continue
            if is_spawn_submit or (is_spawn_thread and kw_name == "target"):
                spawn_args.append(symbol)
                continue
            closure_args.append(symbol)
            for callee in callees:
                param = self._param_name(callee, kw_name, index)
                if param is not None:
                    param_binds.append((param, symbol))
        if not (callees or closure_args or spawn_args):
            return None
        return ResolvedCall(
            line=call.lineno,
            col=call.col_offset,
            callees=tuple(callees),
            closure_args=tuple(closure_args),
            spawn_args=tuple(spawn_args),
            param_binds=tuple(param_binds),
        )

    def _param_name(
        self, callee: str, kw_name: Optional[str], index: int
    ) -> Optional[str]:
        info = self.graph.functions.get(callee)
        if info is None:
            return None
        params = list(info.params)
        if params and params[0] in ("self", "cls") and "." in info.qual:
            params = params[1:]
        if kw_name is not None:
            return kw_name if kw_name in params else None
        if 0 <= index < len(params):
            return params[index]
        return None


def _symbol(module: ModuleInfo, qual: str) -> str:
    if module.package:
        return "%s.%s" % (module.package, qual)
    return qual


def _all_args(args: ast.arguments) -> List[ast.arg]:
    return list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)


def _direct_lambdas(node: ast.AST) -> List[ast.Lambda]:
    """Lambdas whose innermost enclosing function is ``node``."""
    out: List[ast.Lambda] = []
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, ast.Lambda):
            out.append(child)
            continue
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(child))
    return out


def _direct_nested_defs(
    node: ast.AST,
) -> List[Union[ast.FunctionDef, ast.AsyncFunctionDef]]:
    """Function definitions whose immediate scope is ``node``."""
    out: List[Union[ast.FunctionDef, ast.AsyncFunctionDef]] = []
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(child)
            continue
        if isinstance(child, (ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(child))
    return out


def build_call_graph(modules: Sequence[ModuleInfo]) -> CallGraph:
    """Build the project call graph over the given parsed modules."""
    graph = CallGraph()
    graph._index_modules(modules)
    graph._index_attr_types()
    graph._index_closure_returns()
    graph._resolve_all()
    return graph
