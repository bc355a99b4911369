"""The effect core shared by the FS and CC models.

Both static dataflow models (:mod:`repro.analysis.fsmodel`,
:mod:`repro.analysis.cachemodel`) reduce a function to an ordered
:class:`Effect` sequence and judge orderings over it.  What differs
between them is the *vocabulary* — which calls and assignments become
which effects.  What does not differ lives here, once:

* :class:`EffectWalker` — the source-ordered statement walk: nested
  scopes skipped, ``except`` / ``finally`` depth, the innermost
  ``with self.<lock>:`` stack, calls visited in ``(line, col)`` order.
  A vocabulary subclasses it and overrides the ``visit_*`` hooks.
* :class:`EffectModel` — the call-splice inliner: ``call`` markers
  the call graph resolved are replaced by the callee's own
  (recursively inlined) effects, re-anchored to the call site.

The lock-order simulation (:mod:`repro.analysis.lockgraph`) is *not* a
client of the walker: it is flow-sensitive (held sets fork and merge
at ``if``/``try``), which a single forward pass cannot express.  It
shares the leaf utilities only.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Generic,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.analysis.astutil import dotted_name, ordered_calls, self_attr
from repro.analysis.callgraph import CallGraph, FunctionInfo

__all__ = [
    "Effect",
    "EffectModel",
    "EffectWalker",
]


@dataclass(frozen=True)
class Effect:
    """One effect (or resolved call site) of a function, in source order."""

    #: Vocabulary-defined kind; ``call`` is the marker the inliner expands.
    kind: str
    #: What the effect acts on (handle, path text, field, cache, callee).
    target: str
    line: int
    col: int
    #: Inside an ``except`` handler (failure-path compensation).
    in_handler: bool = False
    #: Inside a ``finally`` block — runs on unwind too.
    in_finally: bool = False
    #: Kind-specific detail; for ``call`` the comma-joined callee symbols.
    detail: str = ""
    #: Spliced in from a callee (line/col then point at the call site).
    inlined: bool = False
    #: Lock attribute of the owning class whose ``with self.X:`` block
    #: syntactically encloses the effect ("" when none does).
    under_lock: str = ""
    #: Splice depth: 0 in the function itself, +1 per inlining level.
    depth: int = 0
    #: Symbol of the function the effect was extracted from.
    origin: str = ""
    #: CC ``read``/``fill``: whether the key expression carries a version
    #: token, and where it came from (``"param"`` or ``"attr:<line>"``).
    keyed: bool = False
    key_source: str = ""


class EffectWalker:
    """Walks one function body in source order, emitting effects."""

    def __init__(self, info: FunctionInfo, graph: CallGraph) -> None:
        self.info = info
        self.graph = graph
        self.effects: List[Effect] = []
        self._handler_depth = 0
        self._finally_depth = 0
        self._lock_attrs: FrozenSet[str] = graph.owner_lock_attrs(info)
        #: Innermost-last ``with self.X:`` lock attrs enclosing the
        #: statement currently being visited.
        self._lock_stack: List[str] = []

    def walk(self) -> None:
        """Visit the function's own statements (not nested scopes)."""
        node = self.info.node
        assert not isinstance(node, ast.Lambda)
        self._visit_body(node.body)

    # -- vocabulary hooks ------------------------------------------------------

    def visit_call(self, call: ast.Call) -> None:
        """One call, reached in source order."""
        raise NotImplementedError

    def visit_test(self, test: ast.expr) -> None:
        """The condition of an ``if`` / ``while``."""
        self.scan(test)

    def visit_for(self, stmt: ast.For) -> None:
        """A ``for`` header, before its body."""
        self.scan(stmt.iter)

    def visit_simple(self, stmt: ast.stmt) -> None:
        """Any statement without a body of its own."""
        self.scan_children(stmt)

    def visit_with_item(self, item: ast.withitem) -> bool:
        """Claim a ``with`` item (True skips the default handling)."""
        return False

    def leave_with(
        self, stmt: ast.With, claimed: Sequence[ast.withitem]
    ) -> None:
        """After a ``with`` body, with the items the vocabulary claimed."""

    # -- the walk --------------------------------------------------------------

    def scan(self, expr: ast.expr) -> None:
        """Visit every call in one expression, lambdas included."""
        for call in ordered_calls(ast.walk(expr)):
            self.visit_call(call)

    def scan_children(self, stmt: ast.stmt) -> None:
        """Scan each expression directly under a statement."""
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self.scan(child)

    def _visit_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # nested scopes are separate summaries
        if isinstance(stmt, ast.With):
            self._visit_with(stmt)
        elif isinstance(stmt, ast.Try):
            self._visit_body(stmt.body)
            self._handler_depth += 1
            for handler in stmt.handlers:
                self._visit_body(handler.body)
            self._handler_depth -= 1
            self._visit_body(stmt.orelse)
            self._finally_depth += 1
            self._visit_body(stmt.finalbody)
            self._finally_depth -= 1
        elif isinstance(stmt, (ast.If, ast.While)):
            self.visit_test(stmt.test)
            self._visit_body(stmt.body)
            self._visit_body(stmt.orelse)
        elif isinstance(stmt, ast.For):
            self.visit_for(stmt)
            self._visit_body(stmt.body)
            self._visit_body(stmt.orelse)
        else:
            self.visit_simple(stmt)

    def _visit_with(self, stmt: ast.With) -> None:
        claimed: List[ast.withitem] = []
        depth_before = len(self._lock_stack)
        for item in stmt.items:
            if self.visit_with_item(item):
                claimed.append(item)
                continue
            attr = self_attr(item.context_expr)
            if attr is not None and attr in self._lock_attrs:
                self._lock_stack.append(attr)
            self.scan(item.context_expr)
        self._visit_body(stmt.body)
        del self._lock_stack[depth_before:]
        self.leave_with(stmt, claimed)

    # -- emission --------------------------------------------------------------

    def emit(
        self,
        kind: str,
        target: str,
        line: int,
        col: int,
        detail: str = "",
        keyed: bool = False,
        key_source: str = "",
    ) -> None:
        """Append one effect, stamped with the walk's current context."""
        self.effects.append(
            Effect(
                kind=kind,
                target=target,
                line=line,
                col=col,
                in_handler=self._handler_depth > 0,
                in_finally=self._finally_depth > 0,
                detail=detail,
                under_lock=(
                    self._lock_stack[-1] if self._lock_stack else ""
                ),
                origin=self.info.symbol,
                keyed=keyed,
                key_source=key_source,
            )
        )

    def resolved_callees(self, call: ast.Call) -> Tuple[str, ...]:
        """Project functions the call graph resolved this call to."""
        resolved = self.graph.resolved.get(id(call))
        return resolved.callees if resolved is not None else ()

    def emit_call(self, call: ast.Call, callees: Sequence[str]) -> None:
        """The ``call`` marker :meth:`EffectModel.inlined_effects` expands."""
        self.emit(
            "call",
            dotted_name(call.func) or "?",
            call.lineno,
            call.col_offset,
            detail=",".join(callees),
        )


class _Summary(Protocol):
    effects: List[Effect]


S = TypeVar("S", bound=_Summary)


class EffectModel(Generic[S]):
    """Per-function effect summaries plus the call-splice inliner."""

    def __init__(
        self, summaries: Dict[str, S], callgraph: CallGraph
    ) -> None:
        self.summaries = summaries
        self.callgraph = callgraph

    def inlined_effects(self, symbol: str, depth: int = 3) -> List[Effect]:
        """The function's effect sequence with resolved calls expanded.

        ``call`` effects whose callee has a summary are replaced by the
        callee's own (recursively inlined) effects, spliced at the call
        position, so orderings that span functions are judged as one
        sequence.  Recursion, ``depth=0`` and callees without a summary
        keep the call marker — load-bearing for CC003's unwind-window
        rule, which needs to know a *call* (a potential raise) sits
        between a mutation and its bump.
        """
        return self._inline(symbol, depth, frozenset((symbol,)))

    def stand_in(self, callee: S, call: Effect) -> Optional[Effect]:
        """One effect that replaces a call to ``callee`` outright.

        A vocabulary overrides this for helpers whose whole body means
        one effect to the caller (the FS directory-fsync helper).
        """
        return None

    def _inline(
        self, symbol: str, depth: int, seen: FrozenSet[str]
    ) -> List[Effect]:
        summary = self.summaries.get(symbol)
        if summary is None:
            return []
        out: List[Effect] = []
        for effect in summary.effects:
            if effect.kind != "call" or depth <= 0:
                out.append(effect)
                continue
            spliced = False
            for callee in effect.detail.split(","):
                callee_summary = self.summaries.get(callee)
                if callee_summary is None or callee in seen:
                    continue
                whole = self.stand_in(callee_summary, effect)
                inner = (
                    [whole]
                    if whole is not None
                    else self._inline(callee, depth - 1, seen | {callee})
                )
                for inner_effect in inner:
                    spliced = True
                    out.append(
                        Effect(
                            kind=inner_effect.kind,
                            target=inner_effect.target,
                            line=effect.line,
                            col=effect.col,
                            in_handler=(
                                effect.in_handler
                                or inner_effect.in_handler
                            ),
                            in_finally=(
                                effect.in_finally
                                or inner_effect.in_finally
                            ),
                            detail=inner_effect.detail,
                            inlined=True,
                            under_lock=effect.under_lock,
                            depth=inner_effect.depth + 1,
                            origin=inner_effect.origin,
                            keyed=inner_effect.keyed,
                            key_source=inner_effect.key_source,
                        )
                    )
            if not spliced:
                out.append(effect)
        return out
