"""Static dataflow over cache-coherence effects (the stale-cache model).

PR 4 grew a web of derived-state caches — the targeting cache, the
Hilbert range-decomposition memo, later the statistics catalog — each kept
coherent with its source of truth by a *version token*: a monotonic
counter (``metadata_version``, the storage epoch) bumped on every
mutation of the state the cached values derive from.  A missing bump,
a key built from the wrong version, or a bump published before the
mutation it covers does not crash: it silently serves wrong query
results.  This module extracts the vocabulary those bugs are made of,
so the CC checkers (:mod:`repro.analysis.checkers.cachecoherence`) can
judge orderings the same way the FS rules judge the write path.

The model discovers two kinds of declaration:

* **version tokens** — a ``self`` attribute whose name mentions
  ``version``/``epoch``/``generation`` and that some method bumps with
  an augmented assignment (``self.metadata_version += 1``); the
  methods containing the bump are its *bump methods*;
* **cache classes** — a class whose name contains ``cache`` holding a
  dict-like store attribute with a read method (``get``-then-return),
  a fill method (subscript assignment), and optionally invalidation
  methods (``del``/``clear``/``pop`` on the store).  A method that is
  both read and fill marks the cache *pure-memo* (keys capture the
  full input); a read method that compares the got entry against
  other state is *stamp-validated* (:class:`repro.cache.StampedLRUCache`,
  the store behind every shipped memo).  A version reaches a read or
  fill either in its key tuple or as an argument — the primitive's
  ``stamp=``.

Per function, the model records an ordered
:class:`~repro.analysis.effects.Effect`
sequence — cache ``read``/``fill``/``invalidate`` operations with
their key classification, version ``bump``\\ s, explicit version
``vcheck`` comparisons, ``mutate``\\ s of instance state, and resolved
``call`` markers the inliner expands through the PR-3 call graph.
Effects in ``except`` handlers are failure-path compensations;
effects in ``finally`` blocks are unwind-safe and recorded as such,
because "the bump runs even when the mutation's tail throws" is
exactly the property CC003 demands.

Which mutations matter is not hard-coded: a field is *governed* by a
token when functions that fill caches (or their callees) read it and
functions adjacent to the token's bump mutate it.  The intersection is
small and precise — for ``metadata_version`` it is the chunk list and
chunk placement, not the statistics counters riding alongside.

Like the rest of ``repro.analysis`` this is deliberately heuristic
and source-ordered; the runtime epoch tracer
(:mod:`repro.sanitizer.cachetrace`) cross-validates what the
approximation misses.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.astutil import (
    dotted_name,
    expr_text,
    self_attr,
    walk_within_function,
)
from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    build_call_graph,
)
from repro.analysis.checker import ModuleInfo
from repro.analysis.effects import Effect, EffectModel, EffectWalker

__all__ = [
    "CacheClassInfo",
    "CacheFunctionSummary",
    "CacheModel",
    "VersionToken",
    "build_cache_model",
]

#: Attribute / parameter names that look like a version token.
TOKEN_RE = re.compile(r"version|epoch|generation", re.IGNORECASE)

#: Constructor expressions that make an attribute a dict-like store.
_STORE_FACTORIES = {"dict", "OrderedDict", "collections.OrderedDict"}

#: Container methods that mutate in place (feed ``mutate`` effects).
_MUTATING_CONTAINER_METHODS = {
    "append",
    "extend",
    "insert",
    "pop",
    "popitem",
    "remove",
    "clear",
}


@dataclass
class VersionToken:
    """One discovered version counter and its bump sites."""

    #: ``ClassName.attr`` (or ``module.attr`` for globals).
    key: str
    attr: str
    class_symbol: Optional[str]
    #: Function symbols containing the ``+=`` bump.
    bump_methods: Set[str] = field(default_factory=set)
    #: Fields whose mutation this token governs (computed late).
    governed_fields: Set[str] = field(default_factory=set)


@dataclass
class CacheClassInfo:
    """One discovered cache class and its classified methods."""

    #: Bare class name (``StampedLRUCache``).
    name: str
    class_symbol: str
    #: Dict-like store attribute names.
    store_attrs: Set[str] = field(default_factory=set)
    #: Method name → role sets.
    read_methods: Set[str] = field(default_factory=set)
    fill_methods: Set[str] = field(default_factory=set)
    invalidate_methods: Set[str] = field(default_factory=set)
    #: One method is both read and fill: keys capture the full input.
    pure_memo: bool = False
    #: A read method validates the entry against other instance state.
    stamp_validated: bool = False
    #: The instance attributes the stamp validation consults.
    stamp_source_attrs: Set[str] = field(default_factory=set)
    #: Methods that feed the stamp sources (``note_writes``).
    stamp_feeder_methods: Set[str] = field(default_factory=set)


@dataclass
class CacheFunctionSummary:
    """Everything the CC rules need to know about one function."""

    symbol: str
    info: FunctionInfo
    effects: List[Effect] = field(default_factory=list)
    #: Every attribute load (self or not): ``(attr, line)``.
    field_reads: List[Tuple[str, int]] = field(default_factory=list)
    #: Locals derived from one shard's state but referenced inside a
    #: nested function or lambda (the cross-shard sharing shape).
    shared_shard_derived: List[Tuple[str, int]] = field(
        default_factory=list
    )


class CacheModel(EffectModel[CacheFunctionSummary]):
    """The project-wide cache-coherence model."""

    def __init__(
        self,
        summaries: Dict[str, CacheFunctionSummary],
        tokens: Dict[str, VersionToken],
        caches: Dict[str, CacheClassInfo],
        callgraph: CallGraph,
    ) -> None:
        super().__init__(summaries, callgraph)
        self.tokens = tokens
        self.caches = caches
        #: Field name → keys of tokens governing it.
        self.governing_tokens: Dict[str, Set[str]] = {}
        for token in tokens.values():
            for fname in token.governed_fields:
                self.governing_tokens.setdefault(fname, set()).add(
                    token.key
                )

    def callers_of(self, symbol: str) -> List[str]:
        """Distinct caller symbols with a summary, via call effects."""
        out: Set[str] = set()
        for caller, summary in self.summaries.items():
            for effect in summary.effects:
                if effect.kind != "call":
                    continue
                if symbol in effect.detail.split(","):
                    out.add(caller)
                    break
        return sorted(out)


# -- declaration discovery ---------------------------------------------------


def _is_store_factory(value: ast.expr) -> bool:
    """``OrderedDict()`` / ``dict()`` / ``{}`` — a dict-like store."""
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        return name in _STORE_FACTORIES
    return False


def _method_defs(cls: ast.ClassDef) -> List[ast.FunctionDef]:
    return [
        item
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
    ]


def _is_store_call(
    node: ast.AST, stores: Set[str], methods: Sequence[str]
) -> bool:
    """``self.<store>.<method>(...)`` for one of ``methods``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in methods
        and self_attr(node.func.value) in stores
    )


def _is_store_item(node: ast.AST, stores: Set[str]) -> bool:
    """``self.<store>[...]``."""
    return (
        isinstance(node, ast.Subscript)
        and self_attr(node.value) in stores
    )


def _assign_targets(node: ast.AST) -> List[ast.expr]:
    """Targets of a plain or augmented assignment (else none)."""
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, ast.AugAssign):
        return [node.target]
    return []


def _name_assigns(func: ast.AST) -> List[Tuple[str, ast.expr]]:
    """``(name, value)`` for every ``name = value`` in the subtree."""
    return [
        (node.targets[0].id, node.value)
        for node in ast.walk(func)
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
    ]


def _store_get_locals(
    func: ast.FunctionDef, stores: Set[str]
) -> Set[str]:
    """Locals assigned from ``self.<store>.get(...)``."""
    return {
        name
        for name, value in _name_assigns(func)
        if _is_store_call(value, stores, ("get",))
    }


def _returns_name(func: ast.FunctionDef, names: Set[str]) -> bool:
    """Whether any return value mentions one of ``names``.

    Attribute access on the name counts (``return entry.index_name``),
    which is what distinguishes a read method from bookkeeping that
    merely compares the got value.
    """
    for node in ast.walk(func):
        if isinstance(node, ast.Return) and node.value is not None:
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Name) and sub.id in names:
                    return True
    return False


def _returns_store_get(
    func: ast.FunctionDef, stores: Set[str]
) -> bool:
    """``return self.<store>.get(...)`` directly."""
    return any(
        isinstance(node, ast.Return)
        and node.value is not None
        and _is_store_call(node.value, stores, ("get",))
        for node in ast.walk(func)
    )


def _fills_store(func: ast.FunctionDef, stores: Set[str]) -> bool:
    """``self.<store>[key] = value`` anywhere in the method."""
    return any(
        _is_store_item(target, stores)
        for node in ast.walk(func)
        for target in _assign_targets(node)
    )


def _invalidates_store(
    func: ast.FunctionDef, stores: Set[str]
) -> bool:
    """``del``/``clear``/``pop``/``popitem`` on a store attribute."""
    for node in ast.walk(func):
        if isinstance(node, ast.Delete) and any(
            _is_store_item(target, stores) for target in node.targets
        ):
            return True
        if _is_store_call(node, stores, ("clear", "pop", "popitem")):
            return True
    return False


def _stamp_sources(
    func: ast.FunctionDef, got_locals: Set[str]
) -> Set[str]:
    """Instance attrs a read method compares the got entry against.

    The write-volume shape: ``written - entry.writes_at_creation >=
    self.write_invalidation_threshold`` — a Compare whose subtree
    touches both the entry local (via attribute access) and other
    ``self`` state (directly or through a tainted local).
    """
    # Locals assigned from a self attribute (``written = self._writes
    # .get(...)`` taints ``written`` with ``_writes``).
    tainted: Dict[str, str] = {}
    for name, value in _name_assigns(func):
        for sub in ast.walk(value):
            attr = self_attr(sub)
            if attr is not None:
                tainted[name] = attr
                break
    sources: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Compare):
            continue
        touches_entry = False
        compared: Set[str] = set()
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id in got_locals
            ):
                touches_entry = True
            elif isinstance(sub, ast.Attribute) and self_attr(sub):
                compared.add(sub.attr)
            elif isinstance(sub, ast.Name) and sub.id in tainted:
                compared.add(tainted[sub.id])
        if touches_entry and compared:
            sources |= compared
    return sources


def _feeds_attrs(func: ast.FunctionDef, attrs: Set[str]) -> bool:
    """Assign/subscript/augassign of one of ``attrs`` on ``self``."""
    for node in ast.walk(func):
        for target in _assign_targets(node):
            base = target.value if isinstance(target, ast.Subscript) else target
            if self_attr(base) in attrs:
                return True
    return False


def _discover_cache_classes(
    modules: Sequence[ModuleInfo], graph: CallGraph
) -> Dict[str, CacheClassInfo]:
    """Cache classes by class symbol."""
    caches: Dict[str, CacheClassInfo] = {}
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if "cache" not in node.name.lower():
                continue
            methods = _method_defs(node)
            init = next(
                (m for m in methods if m.name == "__init__"), None
            )
            if init is None:
                continue
            stores: Set[str] = set()
            for stmt in ast.walk(init):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                value = stmt.value
                if value is None or not _is_store_factory(value):
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        stores.add(target.attr)
            if not stores:
                continue
            info = CacheClassInfo(
                name=node.name,
                class_symbol=_class_symbol(module, node),
            )
            info.store_attrs = stores
            for method in methods:
                if method.name == "__init__":
                    continue
                got = _store_get_locals(method, stores)
                is_read = _returns_store_get(method, stores) or (
                    bool(got) and _returns_name(method, got)
                )
                is_fill = _fills_store(method, stores)
                if is_read:
                    info.read_methods.add(method.name)
                    sources = _stamp_sources(method, got)
                    if sources:
                        info.stamp_validated = True
                        info.stamp_source_attrs |= sources
                if is_fill:
                    info.fill_methods.add(method.name)
                if is_read and is_fill:
                    info.pure_memo = True
            for method in methods:
                if method.name == "__init__":
                    continue
                if (
                    method.name not in info.read_methods
                    and method.name not in info.fill_methods
                    and _invalidates_store(method, stores)
                ):
                    info.invalidate_methods.add(method.name)
                if info.stamp_source_attrs and _feeds_attrs(
                    method, info.stamp_source_attrs
                ):
                    if method.name not in info.read_methods:
                        info.stamp_feeder_methods.add(method.name)
            if info.read_methods and info.fill_methods:
                caches[info.class_symbol] = info
    return caches


def _class_symbol(module: ModuleInfo, node: ast.ClassDef) -> str:
    if module.package:
        return "%s.%s" % (module.package, node.name)
    return node.name


def _discover_tokens(
    modules: Sequence[ModuleInfo], graph: CallGraph
) -> Dict[str, VersionToken]:
    """Version tokens by key (``ClassName.attr``)."""
    tokens: Dict[str, VersionToken] = {}
    for module in modules:
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in _method_defs(cls):
                for node in ast.walk(method):
                    if not (
                        isinstance(node, ast.AugAssign)
                        and isinstance(node.target, ast.Attribute)
                        and isinstance(node.target.value, ast.Name)
                        and node.target.value.id == "self"
                        and TOKEN_RE.search(node.target.attr)
                    ):
                        continue
                    key = "%s.%s" % (cls.name, node.target.attr)
                    token = tokens.get(key)
                    if token is None:
                        token = VersionToken(
                            key=key,
                            attr=node.target.attr,
                            class_symbol=_class_symbol(module, cls),
                        )
                        tokens[key] = token
                    method_symbol = _method_symbol(
                        graph, module, cls, method
                    )
                    if method_symbol is not None:
                        token.bump_methods.add(method_symbol)
    return tokens


def _method_symbol(
    graph: CallGraph,
    module: ModuleInfo,
    cls: ast.ClassDef,
    method: ast.FunctionDef,
) -> Optional[str]:
    for symbol, info in graph.functions.items():
        if info.node is method and info.module is module:
            return symbol
    return None


# -- model construction ------------------------------------------------------


def build_cache_model(
    modules: Sequence[ModuleInfo],
    callgraph: Optional[CallGraph] = None,
) -> CacheModel:
    """Extract per-function cache-effect summaries project-wide.

    Unlike the FS model there is no domain gate: cache holders, version
    owners, and the mutation sites they govern are spread across
    cluster, service, and sfc modules, and the splicing needs all of
    them summarized.
    """
    graph = callgraph if callgraph is not None else build_call_graph(modules)
    caches = _discover_cache_classes(modules, graph)
    tokens = _discover_tokens(modules, graph)
    token_attrs = {token.attr for token in tokens.values()}
    summaries: Dict[str, CacheFunctionSummary] = {}
    for symbol, info in graph.functions.items():
        if isinstance(info.node, ast.Lambda):
            continue
        extractor = _CacheEffectExtractor(
            info,
            graph,
            caches,
            tokens,
            token_attrs,
        )
        summaries[symbol] = extractor.run()
    _compute_governed_fields(summaries, tokens)
    return CacheModel(summaries, tokens, caches, graph)


def _compute_governed_fields(
    summaries: Dict[str, CacheFunctionSummary],
    tokens: Dict[str, VersionToken],
) -> None:
    """Governed fields = fill-path reads ∩ bump-adjacent mutations.

    The *reads side* is every attribute read by a function holding a
    fill effect, plus its resolved callees two levels deep — the state
    the cached value was derived from.  The *mutation side*, per
    token, is every field mutated by a function adjacent to that
    token's bump (it bumps locally or calls a bump method), plus its
    direct callees.  Only fields on both sides are governed: counters
    bumped next to a version bump but never read by a fill path do not
    create obligations.
    """
    callees_of: Dict[str, Set[str]] = {}
    for symbol, summary in summaries.items():
        outs: Set[str] = set()
        for effect in summary.effects:
            if effect.kind == "call":
                outs.update(
                    callee
                    for callee in effect.detail.split(",")
                    if callee
                )
        callees_of[symbol] = outs

    read_side: Set[str] = set()
    for symbol, summary in summaries.items():
        if not any(e.kind == "fill" for e in summary.effects):
            continue
        fill_module = summary.info.module.path
        frontier = {symbol}
        seen: Set[str] = set()
        for _ in range(3):  # the function itself + 2 callee levels
            next_frontier: Set[str] = set()
            for current in frontier:
                if current in seen:
                    continue
                seen.add(current)
                current_summary = summaries.get(current)
                if current_summary is None:
                    continue
                # Stay within the fill function's module: the derived
                # value is computed from what the fill path reads
                # *here*, and following service→cluster→docstore
                # chains would govern half the project's fields.
                if current_summary.info.module.path != fill_module:
                    continue
                read_side.update(
                    attr for attr, _ in current_summary.field_reads
                )
                next_frontier |= callees_of.get(current, set())
            frontier = next_frontier

    for token in tokens.values():
        adjacent: Set[str] = set(token.bump_methods)
        for symbol, summary in summaries.items():
            for effect in summary.effects:
                if effect.kind == "bump" and effect.detail == token.key:
                    adjacent.add(symbol)
                elif effect.kind == "call" and any(
                    callee in token.bump_methods
                    for callee in effect.detail.split(",")
                ):
                    adjacent.add(symbol)
        mutated: Set[str] = set()
        for symbol in adjacent:
            for scope in {symbol} | callees_of.get(symbol, set()):
                scope_summary = summaries.get(scope)
                if scope_summary is None:
                    continue
                for effect in scope_summary.effects:
                    if (
                        effect.kind == "mutate"
                        and effect.detail != "fresh"
                    ):
                        mutated.add(effect.target)
        token.governed_fields = mutated & read_side
        # The token itself is bookkeeping, not governed state.
        token.governed_fields.discard(token.attr)


# -- effect extraction -------------------------------------------------------


class _CacheEffectExtractor(EffectWalker):
    """The CC vocabulary: cache ops, version bumps/checks, mutations."""

    def __init__(
        self,
        info: FunctionInfo,
        graph: CallGraph,
        caches: Dict[str, CacheClassInfo],
        tokens: Dict[str, VersionToken],
        token_attrs: Set[str],
    ) -> None:
        super().__init__(info, graph)
        self.caches = caches
        self.tokens = tokens
        self.token_attrs = token_attrs
        self.summary = CacheFunctionSummary(
            symbol=info.symbol, info=info, effects=self.effects
        )
        #: TOKEN_RE-named parameters of this function.
        self._version_params: Set[str] = {
            name for name in info.params if TOKEN_RE.search(name)
        }
        #: Local ``v = <obj>.token_attr`` captures: name → line.
        self._version_locals: Dict[str, int] = {}
        #: Locals keyed by a version (a tuple carrying one): name → key
        #: source string.
        self._keyed_locals: Dict[str, str] = {}
        #: Locals constructed fresh in this function (mutations of
        #: them are pre-publication and carry no bump obligation).
        self._fresh_locals: Set[str] = set()
        #: ``self.<attr>`` attrs whose declared type is a cache class.
        self._own_class = (
            info.class_symbol.rsplit(".", 1)[-1]
            if info.class_symbol is not None
            else None
        )

    def run(self) -> CacheFunctionSummary:
        self.walk()
        self._collect_field_reads(self.info.node)
        self._collect_shared_shard_derived(self.info.node)
        return self.summary

    # -- statement shapes --------------------------------------------------------

    def visit_simple(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._visit_assign(stmt)
        elif isinstance(stmt, ast.AugAssign):
            self._visit_augassign(stmt)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self.scan(stmt.value)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._note_subscript_mutation(target, stmt)
        else:
            self.scan_children(stmt)

    def _visit_assign(self, stmt: ast.Assign) -> None:
        value = stmt.value
        name_target = (
            stmt.targets[0].id
            if len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            else None
        )
        # Key classification for locals feeding cache ops.
        if name_target is not None:
            self._classify_local(name_target, value)
        # Instance-state mutations (non-__init__ scopes only).
        if not self._in_init():
            for target in stmt.targets:
                self._note_attr_mutation(target, stmt)
                self._note_subscript_mutation(target, stmt)
        self.scan(value)

    def _visit_augassign(self, stmt: ast.AugAssign) -> None:
        target = stmt.target
        # self.token += 1 → bump
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and target.attr in self.token_attrs
        ):
            token_key = self._token_key_for(target.attr)
            if token_key is not None:
                self.emit(
                    "bump",
                    target.attr,
                    stmt.lineno,
                    stmt.col_offset,
                    detail=token_key,
                )
                self.scan(stmt.value)
                return
        if not self._in_init():
            self._note_attr_mutation(target, stmt)
            self._note_subscript_mutation(target, stmt)
        self.scan(stmt.value)

    def _token_key_for(self, attr: str) -> Optional[str]:
        own = self._own_class
        if own is not None:
            key = "%s.%s" % (own, attr)
            if key in self.tokens:
                return key
        for key, token in self.tokens.items():
            if token.attr == attr:
                return key
        return None

    def _in_init(self) -> bool:
        return self.info.qual.endswith("__init__") or self.info.qual.endswith(
            "__post_init__"
        )

    def _classify_local(self, name: str, value: ast.expr) -> None:
        # v = self.metadata_version / v = cluster.metadata_version
        if (
            isinstance(value, ast.Attribute)
            and TOKEN_RE.search(value.attr)
        ):
            self._version_locals[name] = value.lineno
            return
        # metadata = CollectionMetadata(...) — fresh construction.
        if isinstance(value, ast.Call):
            called = dotted_name(value.func)
            if called is not None and called.split(".")[-1][:1].isupper():
                self._fresh_locals.add(name)
            return
        # key = (collection, version, ...) — tuple carrying a version.
        if isinstance(value, ast.Tuple):
            source = self._version_expr_source(value)
            if source is not None:
                self._keyed_locals[name] = source

    def _version_expr_source(self, expr: ast.expr) -> Optional[str]:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name):
                if node.id in self._version_params:
                    return "param"
                if node.id in self._version_locals:
                    return "attr:%d" % self._version_locals[node.id]
                if node.id in self._keyed_locals:
                    return self._keyed_locals[node.id]
            elif isinstance(node, ast.Attribute) and TOKEN_RE.search(
                node.attr
            ):
                return "attr:%d" % node.lineno
        return None

    def _note_attr_mutation(
        self, target: ast.expr, stmt: ast.stmt
    ) -> None:
        """``obj.field = ...`` / ``obj.field += ...``."""
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
        ):
            return
        owner = target.value.id
        if target.attr in self.token_attrs and owner == "self":
            return  # plain (non-aug) token rebinds are init shapes
        detail = "fresh" if owner in self._fresh_locals else owner
        self.emit(
            "mutate",
            target.attr,
            stmt.lineno,
            stmt.col_offset,
            detail=detail,
        )

    def _note_subscript_mutation(
        self, target: ast.expr, stmt: ast.stmt
    ) -> None:
        """``obj.field[...] = ...`` (subscript or slice assignment)."""
        if not isinstance(target, ast.Subscript):
            return
        base = target.value
        if not isinstance(base, ast.Attribute):
            return
        owner_text = expr_text(base.value)
        owner_root = owner_text.split(".")[0].split("[")[0]
        detail = (
            "fresh" if owner_root in self._fresh_locals else owner_text
        )
        self.emit(
            "mutate",
            base.attr,
            stmt.lineno,
            stmt.col_offset,
            detail=detail,
        )

    # -- expression scanning -----------------------------------------------------

    def scan(self, expr: ast.expr) -> None:
        self._note_vchecks(expr)
        super().scan(expr)

    def _note_vchecks(self, expr: ast.expr) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Compare):
                continue
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute)
                    and self._is_token_attr(sub.attr)
                ) or (
                    isinstance(sub, ast.Name)
                    and (
                        sub.id in self._version_locals
                        or sub.id in self._version_params
                    )
                ):
                    self.emit(
                        "vcheck",
                        expr_text(node),
                        node.lineno,
                        node.col_offset,
                    )
                    break

    def _is_token_attr(self, attr: str) -> bool:
        stripped = attr.lstrip("_")
        return any(
            token.attr.lstrip("_") == stripped
            for token in self.tokens.values()
        )

    def visit_call(self, call: ast.Call) -> None:
        func = call.func
        line, col = call.lineno, call.col_offset

        # Cache-operation detection by receiver type.
        if isinstance(func, ast.Attribute):
            cache = self._receiver_cache(func.value)
            if cache is not None:
                method = func.attr
                if method in cache.read_methods:
                    keyed, source = self._call_key(call)
                    self.emit(
                        "read",
                        cache.name,
                        line,
                        col,
                        keyed=keyed,
                        key_source=source,
                    )
                    return
                if method in cache.fill_methods:
                    keyed, source = self._call_key(call)
                    self.emit(
                        "fill",
                        cache.name,
                        line,
                        col,
                        keyed=keyed,
                        key_source=source,
                    )
                    return
                if method in cache.invalidate_methods:
                    self.emit("invalidate", cache.name, line, col)
                    return
                if method in cache.stamp_feeder_methods:
                    self.emit(
                        "invalidate",
                        cache.name,
                        line,
                        col,
                        detail="stamp-feed",
                    )
                    return

        # Mutating container-method calls on instance attributes.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_CONTAINER_METHODS
            and isinstance(func.value, ast.Attribute)
            and not self._in_init()
        ):
            base = func.value
            owner_text = expr_text(base.value)
            owner_root = owner_text.split(".")[0].split("[")[0]
            cache = self._receiver_cache(base.value)
            if cache is None:
                detail = (
                    "fresh"
                    if owner_root in self._fresh_locals
                    else owner_text
                )
                self.emit(
                    "mutate", base.attr, line, col, detail=detail
                )
                # fall through: the call may also resolve in-graph

        # Resolved project call → bump (when the callee is a bump
        # method) or call marker for inlining.
        callees = self.resolved_callees(call)
        if callees:
            bump_token = self._bump_callee_token(callees)
            if bump_token is not None:
                self.emit(
                    "bump",
                    dotted_name(func) or "?",
                    line,
                    col,
                    detail=bump_token,
                )
            else:
                self.emit_call(call, callees)

    def _bump_callee_token(
        self, callees: Sequence[str]
    ) -> Optional[str]:
        """Token key when every callee is one token's bump method.

        Calling the bump method *is* the bump: ``_bump_metadata_version``
        does nothing else, and treating the call as an opaque marker
        would hide the bump from ordering rules at depth limits.
        """
        for token in self.tokens.values():
            if all(callee in token.bump_methods for callee in callees):
                bump_only = True
                for callee in callees:
                    info = self.graph.functions.get(callee)
                    if info is None or isinstance(
                        info.node, ast.Lambda
                    ):
                        bump_only = False
                        break
                    body = [
                        stmt
                        for stmt in info.node.body
                        if not isinstance(stmt, ast.Expr)
                        or not isinstance(stmt.value, ast.Constant)
                    ]
                    if len(body) != 1 or not isinstance(
                        body[0], ast.AugAssign
                    ):
                        bump_only = False
                        break
                if bump_only:
                    return token.key
        return None

    def _receiver_cache(
        self, node: ast.expr
    ) -> Optional[CacheClassInfo]:
        """The cache class a call receiver names, if any."""
        resolver = self.graph.resolvers.get(self.info.symbol)
        if resolver is None:
            return None
        type_name = resolver.receiver_type_name(node)
        if type_name is None:
            return None
        for cache in self.caches.values():
            if cache.name == type_name:
                return cache
        return None

    def _call_key(self, call: ast.Call) -> Tuple[bool, str]:
        """Key classification of a cache read/fill call's arguments."""
        for arg in list(call.args) + [
            keyword.value
            for keyword in call.keywords
            if keyword.value is not None
        ]:
            source = self._version_expr_source(arg)
            if source is not None:
                return True, source
        return False, ""

    # -- summary data ------------------------------------------------------------

    def _collect_field_reads(self, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and isinstance(
                sub.ctx, ast.Load
            ):
                self.summary.field_reads.append(
                    (sub.attr, sub.lineno)
                )

    def _collect_shared_shard_derived(
        self, node: ast.AST
    ) -> None:
        """Locals drawn from one shard, referenced in a nested scope.

        ``first = self.shards[sid]`` then ``bounds = first.f(...)``
        then ``def run(...): ... bounds ...`` — the cached-per-query
        value computed from one shard's state but visible to every
        shard's closure.  CC006 flags these (info) so the sharing is
        consciously justified.
        """
        assert not isinstance(node, ast.Lambda)
        per_shard: Dict[str, int] = {}
        derived: Dict[str, int] = {}
        # Only assignments in the function's own scope count: a value
        # both derived and consumed inside the same nested closure is
        # per-shard by construction, not shared.  Sorted by line so
        # ``first = self.shards[...]`` registers before the assignment
        # that derives from it.
        assigns = sorted(
            (
                sub
                for sub in walk_within_function(node)
                if isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
            ),
            key=lambda a: (a.lineno, a.col_offset),
        )
        for sub in assigns:
            name_target = sub.targets[0]
            if not isinstance(name_target, ast.Name):
                continue
            target = name_target.id
            for leaf in ast.walk(sub.value):
                if (
                    isinstance(leaf, ast.Subscript)
                    and isinstance(leaf.value, ast.Attribute)
                    and leaf.value.attr == "shards"
                ):
                    per_shard[target] = sub.lineno
                    break
            else:
                for leaf in ast.walk(sub.value):
                    if (
                        isinstance(leaf, ast.Name)
                        and leaf.id in per_shard
                    ):
                        derived[target] = sub.lineno
                        break
        if not derived:
            return
        nested: List[ast.AST] = []
        for sub in ast.walk(node):
            if sub is node:
                continue
            if isinstance(
                sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                nested.append(sub)
        for scope in nested:
            for leaf in ast.walk(scope):
                if (
                    isinstance(leaf, ast.Name)
                    and leaf.id in derived
                    and isinstance(leaf.ctx, ast.Load)
                ):
                    entry = (leaf.id, derived[leaf.id])
                    if entry not in self.summary.shared_shard_derived:
                        self.summary.shared_shard_derived.append(entry)
