"""Concurrency-hygiene rules (CH).

Race shapes that survive code review because each looks locally
harmless: check-then-act on shared mappings, lazy initialization
without a lock, threads spawned without join/daemon discipline, and
``Future.result()`` waits with no timeout (which turn a stuck shard
into a stuck service).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.astutil import (
    FunctionNode,
    dotted_name,
    iter_functions,
    iter_lock_owner_methods,
    iter_lock_scoped_statements,
    owned_attr,
    walk_within_function,
)
from repro.analysis.checker import Checker, ModuleInfo, register
from repro.analysis.findings import Finding, Severity

__all__ = ["ConcurrencyChecker"]

THREAD_FACTORIES = {"threading.Thread", "Thread"}


@register
class ConcurrencyChecker(Checker):
    """CH rules: check-then-act, lazy init, thread and future hygiene."""

    name = "concurrency"
    description = (
        "no unguarded check-then-act or lazy init on shared state, "
        "threads join or daemonize, Future.result() waits are bounded"
    )
    rules = {
        "CH001": (
            "check-then-act on a shared mapping of a lock-owning class "
            "outside a lock-holding scope"
        ),
        "CH002": (
            "lazy initialization of a shared attribute without holding "
            "the class's lock"
        ),
        "CH003": (
            "threading.Thread created without daemon=True and never "
            "joined in the same function"
        ),
        "CH004": (
            "Future.result() with no timeout; a stuck subquery blocks "
            "the caller forever"
        ),
    }
    rule_details = {
        "CH001": (
            "Reading shared state to decide whether to write it is "
            "only atomic under the lock that guards the state; two "
            "threads passing the check concurrently both act, and the "
            "second silently clobbers the first.  Hold the class's "
            "lock across the check and the act."
        ),
        "CH002": (
            "Lazy initialisation outside the lock lets two threads "
            "observe the attribute unset and both build it; one "
            "build (and anything registered against it) is lost.  "
            "Initialise under the lock or eagerly in __init__."
        ),
        "CH003": (
            "A non-daemon thread that is never joined outlives the "
            "function that spawned it and can keep the process alive "
            "at shutdown.  Either join it on every exit path or mark "
            "it daemon=True so interpreter exit is not blocked."
        ),
        "CH004": (
            "Future.result() with no timeout turns a stuck worker "
            "into a stuck caller.  Pass a timeout, or wait on the "
            "future's completion first so the result call cannot "
            "block."
        ),
    }
    rule_levels = {
        "CH001": Severity.ERROR,
        "CH002": Severity.ERROR,
        "CH003": Severity.WARNING,
        "CH004": Severity.WARNING,
    }
    help_uri = "DESIGN.md#rule-catalog"

    def check(self, module: ModuleInfo) -> List[Finding]:
        """Run all CH rules over one module."""
        findings: List[Finding] = []
        findings.extend(self._check_guarded_patterns(module))
        for qual, func, _cls in iter_functions(module.tree):
            findings.extend(self._check_thread_join(module, qual, func))
            findings.extend(self._check_future_result(module, qual, func))
        return findings

    # -- CH001 / CH002 (scoped to lock-owning classes) -------------------------

    def _check_guarded_patterns(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for qual, method, lock_attrs, owners in iter_lock_owner_methods(
            module.tree
        ):
            for stmt, scope, guarded in iter_lock_scoped_statements(
                method.body, qual, lock_attrs
            ):
                if guarded or not isinstance(stmt, ast.If):
                    continue
                finding = self._check_if_statement(
                    stmt, lock_attrs, owners, module, scope
                )
                if finding is not None:
                    findings.append(finding)
        return findings

    def _check_if_statement(
        self,
        stmt: ast.If,
        lock_attrs: Set[str],
        owners: Set[str],
        module: ModuleInfo,
        qual: str,
    ) -> Optional[Finding]:
        checked = self._membership_checked_attr(stmt.test, owners)
        if checked is not None and checked not in lock_attrs:
            if self._body_mutates_attr(stmt.body, checked, owners):
                return Finding(
                    rule_id="CH001",
                    severity=Severity.ERROR,
                    message=(
                        "check-then-act on shared mapping %r without "
                        "holding the class's lock; another thread can "
                        "interleave between the test and the mutation"
                        % checked
                    ),
                    path=module.path,
                    line=stmt.lineno,
                    col=stmt.col_offset,
                    symbol=qual,
                )
        lazy = self._lazy_init_attr(stmt, owners)
        if lazy is not None and lazy not in lock_attrs:
            return Finding(
                rule_id="CH002",
                severity=Severity.ERROR,
                message=(
                    "lazy initialization of shared attribute %r without "
                    "a lock; two threads can each build and publish one"
                    % lazy
                ),
                path=module.path,
                line=stmt.lineno,
                col=stmt.col_offset,
                symbol=qual,
            )
        return None

    @staticmethod
    def _membership_checked_attr(
        test: ast.expr, owners: Set[str]
    ) -> Optional[str]:
        """Attr name when the test is ``key [not] in self.X``."""
        for sub in ast.walk(test):
            if not isinstance(sub, ast.Compare):
                continue
            for op, comparator in zip(sub.ops, sub.comparators):
                if isinstance(op, (ast.In, ast.NotIn)):
                    attr = owned_attr(comparator, owners)
                    if attr is not None:
                        return attr
        return None

    @staticmethod
    def _body_mutates_attr(
        body: List[ast.stmt], attr: str, owners: Set[str]
    ) -> bool:
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Assign):
                    if any(
                        owned_attr(t, owners) == attr
                        and isinstance(t, ast.Subscript)
                        for t in sub.targets
                    ):
                        return True
                elif isinstance(sub, ast.Delete):
                    if any(
                        owned_attr(t, owners) == attr
                        and isinstance(t, ast.Subscript)
                        for t in sub.targets
                    ):
                        return True
                elif (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr
                    in ("pop", "setdefault", "update", "clear", "popitem")
                    and owned_attr(sub.func.value, owners) == attr
                ):
                    return True
        return False

    @staticmethod
    def _lazy_init_attr(
        stmt: ast.If, owners: Set[str]
    ) -> Optional[str]:
        """Attr name for ``if self.X is None: self.X = ...`` shapes."""
        test = stmt.test
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            return None
        attr = owned_attr(test.left, owners)
        if attr is None:
            return None
        for sub in stmt.body:
            for node in ast.walk(sub):
                if isinstance(node, ast.Assign) and any(
                    owned_attr(t, owners) == attr
                    and not isinstance(t, ast.Subscript)
                    for t in node.targets
                ):
                    return attr
        return None

    # -- CH003 -----------------------------------------------------------------

    def _check_thread_join(
        self, module: ModuleInfo, qual: str, func: FunctionNode
    ) -> List[Finding]:
        findings: List[Finding] = []
        creations = [
            node
            for node in walk_within_function(func)
            if isinstance(node, ast.Call)
            and dotted_name(node.func) in THREAD_FACTORIES
        ]
        if not creations:
            return findings
        has_join = any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            for node in ast.walk(func)
        )
        has_daemon_assign = any(
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Attribute) and t.attr == "daemon"
                for t in node.targets
            )
            for node in ast.walk(func)
        )
        for call in creations:
            daemonized = any(
                kw.arg == "daemon"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in call.keywords
            )
            if daemonized or has_join or has_daemon_assign:
                continue
            findings.append(
                Finding(
                    rule_id="CH003",
                    severity=Severity.WARNING,
                    message=(
                        "Thread created without daemon=True and never "
                        "joined in this function; it can outlive the "
                        "work that spawned it"
                    ),
                    path=module.path,
                    line=call.lineno,
                    col=call.col_offset,
                    symbol=qual,
                )
            )
        return findings

    # -- CH004 -----------------------------------------------------------------

    def _check_future_result(
        self, module: ModuleInfo, qual: str, func: FunctionNode
    ) -> List[Finding]:
        findings: List[Finding] = []
        future_lists, future_vars = self._collect_future_names(func)
        for node in walk_within_function(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "result"
            ):
                continue
            if node.args or any(kw.arg == "timeout" for kw in node.keywords):
                continue
            receiver = node.func.value
            is_future = (
                (isinstance(receiver, ast.Name) and receiver.id in future_vars)
                or (
                    isinstance(receiver, ast.Subscript)
                    and isinstance(receiver.value, ast.Name)
                    and receiver.value.id in future_lists
                )
                or self._is_submit_call(receiver)
            )
            if not is_future:
                continue
            findings.append(
                Finding(
                    rule_id="CH004",
                    severity=Severity.WARNING,
                    message=(
                        "Future.result() without a timeout waits forever "
                        "if the subquery wedges; pass a deadline-derived "
                        "timeout or gate on wait()"
                    ),
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    symbol=qual,
                )
            )
        return findings

    @staticmethod
    def _is_submit_call(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
        )

    def _collect_future_names(
        self, func: FunctionNode
    ) -> tuple:
        """Names bound to futures or lists of futures in this scope."""
        future_lists: Set[str] = set()
        future_vars: Set[str] = set()
        for node in walk_within_function(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                value = node.value
                if self._is_submit_call(value):
                    future_vars.add(target.id)
                elif isinstance(value, ast.ListComp) and self._is_submit_call(
                    value.elt
                ):
                    future_lists.add(target.id)
                elif isinstance(value, (ast.List, ast.Tuple)) and any(
                    self._is_submit_call(elt) for elt in value.elts
                ):
                    future_lists.add(target.id)
        # Loop / comprehension variables ranging over a future list are
        # futures themselves; comprehensions are separate scopes in
        # Python but share names lexically, so walk the whole function.
        for node in ast.walk(func):
            if isinstance(node, ast.For):
                if (
                    isinstance(node.iter, ast.Name)
                    and node.iter.id in future_lists
                    and isinstance(node.target, ast.Name)
                ):
                    future_vars.add(node.target.id)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                for gen in node.generators:
                    if (
                        isinstance(gen.iter, ast.Name)
                        and gen.iter.id in future_lists
                        and isinstance(gen.target, ast.Name)
                    ):
                        future_vars.add(gen.target.id)
        return future_lists, future_vars
