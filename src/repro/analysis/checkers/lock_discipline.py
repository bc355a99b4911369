"""Lock-discipline rules (LD): the PR-1 bug class, mechanized.

The service review found read locks leaking when a deadline expired
mid-acquisition — an ``acquire`` whose matching release was only on
the straight-line path.  These rules make that class of bug (and its
siblings: unordered multi-lock acquisition, unguarded shared-state
mutation) a CI failure instead of a reviewer catch.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.astutil import (
    FunctionNode,
    dotted_name,
    iter_functions,
    iter_lock_owner_methods,
    iter_lock_scoped_statements,
    owned_attr,
    unwind_release_names,
    walk_within_function,
)
from repro.analysis.checker import Checker, ModuleInfo, register
from repro.analysis.findings import Finding, Severity

__all__ = ["LockDisciplineChecker"]

#: Acquire method → release methods that balance it.
ACQUIRE_TO_RELEASE: Dict[str, Tuple[str, ...]] = {
    "acquire": ("release",),
    "acquire_read": ("release_read",),
    "acquire_write": ("release_write",),
}

#: Method calls that mutate a container in place.
MUTATOR_METHODS: Set[str] = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "move_to_end",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "update",
}


def _with_item_node_ids(func: FunctionNode) -> Set[int]:
    """Ids of every node inside a ``with`` item's context expression."""
    ids: Set[int] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                for sub in ast.walk(item.context_expr):
                    ids.add(id(sub))
    return ids


def _releases_on_unwind_paths(func: FunctionNode) -> Set[str]:
    """Release methods called from a ``finally`` or ``except`` body.

    Nested functions count: a closure handed to an executor may own
    the release for an acquire made by its parent.
    """
    protected: Set[str] = set()
    for node in ast.walk(func):
        protected |= unwind_release_names(node)
    return protected


def _walk_outside_nested_loops(stmt: ast.stmt) -> List[ast.AST]:
    """Descendants of a statement, not descending into nested loops."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = [stmt]
    while stack:
        node = stack.pop()
        out.append(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (
                    ast.For,
                    ast.AsyncFor,
                    ast.While,
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                    ast.Lambda,
                ),
            ):
                continue
            stack.append(child)
    return out


@register
class LockDisciplineChecker(Checker):
    """LD rules: release-on-all-paths, sorted order, guarded mutation."""

    name = "lock-discipline"
    description = (
        "lock acquisitions released on every exception path, sorted "
        "multi-lock order, shared state mutated only under its lock"
    )
    rules = {
        "LD001": (
            "lock/semaphore acquired outside a with-statement and with "
            "no matching release on a finally/except unwind path"
        ),
        "LD002": (
            "multiple locks acquired in a loop over an unsorted "
            "iterable (deadlock risk against other multi-lock holders)"
        ),
        "LD003": (
            "attribute of a lock-owning class mutated outside a "
            "lock-holding scope"
        ),
    }
    rule_details = {
        "LD001": (
            "An acquire with no release on some unwind path leaks the "
            "lock the first time that path raises — the bug class "
            "behind the PR-1 timeout-path leak.  Use a with-statement, "
            "or release in a finally that covers every exit."
        ),
        "LD002": (
            "Acquiring multiple locks in arbitrary order deadlocks "
            "against any other multi-lock holder using a different "
            "order.  Iterate the lock collection in sorted key order, "
            "as the targeted-shard read path does."
        ),
        "LD003": (
            "An attribute of a lock-owning class written outside any "
            "lock scope races every reader that does take the lock.  "
            "Mutate under the class's own lock.  Methods whose name "
            "ends in ``_locked`` declare the calling convention that "
            "the caller already holds the class lock and are judged "
            "as guarded."
        ),
    }
    rule_levels = {
        "LD001": Severity.ERROR,
        "LD002": Severity.ERROR,
        "LD003": Severity.WARNING,
    }
    help_uri = "DESIGN.md#rule-catalog"

    def check(self, module: ModuleInfo) -> List[Finding]:
        """Run all LD rules over one module."""
        findings: List[Finding] = []
        for qual, func, _cls in iter_functions(module.tree):
            findings.extend(self._check_release_paths(module, qual, func))
            findings.extend(self._check_sorted_order(module, qual, func))
        findings.extend(self._check_guarded_mutation(module))
        return findings

    # -- LD001 -----------------------------------------------------------------

    def _check_release_paths(
        self, module: ModuleInfo, qual: str, func: FunctionNode
    ) -> List[Finding]:
        findings: List[Finding] = []
        exempt = _with_item_node_ids(func)
        protected = _releases_on_unwind_paths(func)
        for node in walk_within_function(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ACQUIRE_TO_RELEASE
            ):
                continue
            if id(node) in exempt:
                continue
            # Wrapper delegation: a method named like the acquire it
            # forwards (``SanitizedLock.acquire`` calling
            # ``self._inner.acquire()``) or ``__enter__`` (whose
            # release lives in ``__exit__``) holds the lock *for its
            # caller* — the caller's unwind path is judged instead.
            enclosing = getattr(func, "name", None)
            if enclosing == node.func.attr or enclosing == "__enter__":
                continue
            balancing = ACQUIRE_TO_RELEASE[node.func.attr]
            if any(name in protected for name in balancing):
                continue
            receiver = dotted_name(node.func.value) or "<expr>"
            findings.append(
                Finding(
                    rule_id="LD001",
                    severity=Severity.ERROR,
                    message=(
                        "%s.%s() has no matching %s() on a finally/except "
                        "path; a timeout or error here leaks the lock "
                        "(use a with-statement or try/finally)"
                        % (receiver, node.func.attr, balancing[0])
                    ),
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    symbol=qual,
                )
            )
        return findings

    # -- LD002 -----------------------------------------------------------------

    def _check_sorted_order(
        self, module: ModuleInfo, qual: str, func: FunctionNode
    ) -> List[Finding]:
        findings: List[Finding] = []
        for node in walk_within_function(func):
            if not isinstance(node, ast.For):
                continue
            # Only acquisitions driven by *this* loop matter; an inner
            # (possibly sorted) loop is judged on its own.
            acquires = [
                sub
                for stmt in node.body
                for sub in _walk_outside_nested_loops(stmt)
                if isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in ACQUIRE_TO_RELEASE
            ]
            if not acquires:
                continue
            ordered = any(
                isinstance(sub, ast.Name) and sub.id == "sorted"
                for sub in ast.walk(node.iter)
            )
            if ordered:
                continue
            findings.append(
                Finding(
                    rule_id="LD002",
                    severity=Severity.ERROR,
                    message=(
                        "multi-lock acquisition iterates an unsorted "
                        "iterable; acquire in sorted() order so "
                        "concurrent multi-lock holders cannot deadlock"
                    ),
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    symbol=qual,
                )
            )
        return findings

    # -- LD003 -----------------------------------------------------------------

    def _check_guarded_mutation(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for qual, method, lock_attrs, owners in iter_lock_owner_methods(
            module.tree
        ):
            # The ``_locked`` suffix is the repo's calling convention
            # for "caller holds the class lock"; the runtime sanitizer
            # still observes the real acquisition order, so a
            # convention-violating caller is caught by the dynamic
            # oracle rather than silently trusted.
            for stmt, scope, guarded in iter_lock_scoped_statements(
                method.body,
                qual,
                lock_attrs,
                guarded=method.name.endswith("_locked"),
            ):
                if guarded:
                    continue
                attr = self._mutated_attr(stmt, owners)
                if attr is None or attr in lock_attrs:
                    continue
                findings.append(
                    Finding(
                        rule_id="LD003",
                        severity=Severity.WARNING,
                        message=(
                            "mutation of shared attribute %r outside "
                            "a lock-holding scope in a lock-owning "
                            "class" % attr
                        ),
                        path=module.path,
                        line=stmt.lineno,
                        col=stmt.col_offset,
                        symbol=scope,
                    )
                )
        return findings

    @staticmethod
    def _mutated_attr(
        stmt: ast.stmt, owners: Set[str]
    ) -> Optional[str]:
        """The owned attribute a statement mutates, if any."""
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                attr = owned_attr(target, owners)
                if attr is not None:
                    return attr
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            target = stmt.target
            attr = owned_attr(target, owners)
            if attr is not None and not (
                isinstance(stmt, ast.AnnAssign) and stmt.value is None
            ):
                return attr
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                attr = owned_attr(target, owners)
                if attr is not None:
                    return attr
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in MUTATOR_METHODS
            ):
                return owned_attr(call.func.value, owners)
        return None
