"""Shared AST helpers used by the checkers.

Checkers reason about three recurring shapes: dotted references
(``self._cond``, ``threading.Lock``), function scopes with stable
qualified names (fingerprints hang off them), and "which statements
run while a lock is held".  This module centralizes those so each
checker stays a readable statement of its rule.
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

__all__ = [
    "FunctionNode",
    "LOCK_FACTORY_NAMES",
    "collect_lock_attrs",
    "dotted_name",
    "expr_text",
    "iter_classes",
    "iter_functions",
    "iter_lock_owner_methods",
    "iter_lock_scoped_statements",
    "ordered_calls",
    "owned_attr",
    "owner_lock_attrs",
    "self_attr",
    "unwind_release_names",
    "walk_within_function",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Constructor names (suffix of the dotted call) that create a lock or
#: lock-like object worth guarding shared state with.
LOCK_FACTORY_NAMES = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "ReadWriteLock",
}


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render an attribute chain such as ``self._cond`` or ``time.time``.

    Returns None when the chain is rooted in anything but a plain name
    (a call result, a subscript, ...).
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def self_attr(node: ast.AST) -> Optional[str]:
    """The attribute name when ``node`` is exactly ``self.<attr>``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def owned_attr(node: ast.expr, owners: Set[str]) -> Optional[str]:
    """Attribute name when ``node`` is ``<owner>.X`` or ``<owner>.X[...]``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in owners
    ):
        return node.attr
    return None


def ordered_calls(nodes: Iterable[ast.AST]) -> List[ast.Call]:
    """The calls among ``nodes``, in ``(line, col)`` source order.

    The caller picks the traversal: ``ast.walk(expr)`` includes lambda
    bodies (a call inside ``lambda: self.f(...)`` resolves through the
    call graph and belongs at the lambda's use site), while the lock
    simulation passes a walk that stops at lambdas.
    """
    return sorted(
        (node for node in nodes if isinstance(node, ast.Call)),
        key=lambda call: (call.lineno, call.col_offset),
    )


def expr_text(expr: ast.expr) -> str:
    """Source text of an expression, for effect targets and messages."""
    try:
        return ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse is total on 3.10+
        return "<expr>"


def iter_functions(
    tree: ast.Module,
) -> Iterator[Tuple[str, FunctionNode, Optional[ast.ClassDef]]]:
    """Yield ``(qualname, function, owning_class)`` for every function.

    Nested functions carry their parent's qualname as a prefix;
    ``owning_class`` is the innermost enclosing class, or None.
    """

    def walk(
        node: ast.AST, qual: str, cls: Optional[ast.ClassDef]
    ) -> Iterator[Tuple[str, FunctionNode, Optional[ast.ClassDef]]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_qual = "%s.%s" % (qual, child.name) if qual else child.name
                yield (child_qual, child, cls)
                yield from walk(child, child_qual, cls)
            elif isinstance(child, ast.ClassDef):
                child_qual = "%s.%s" % (qual, child.name) if qual else child.name
                yield from walk(child, child_qual, child)
            else:
                yield from walk(child, qual, cls)

    yield from walk(tree, "", None)


def iter_classes(tree: ast.Module) -> Iterator[Tuple[str, ast.ClassDef]]:
    """Yield ``(qualname, class)`` for every class definition."""

    def walk(node: ast.AST, qual: str) -> Iterator[Tuple[str, ast.ClassDef]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                child_qual = "%s.%s" % (qual, child.name) if qual else child.name
                yield (child_qual, child)
                yield from walk(child, child_qual)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_qual = "%s.%s" % (qual, child.name) if qual else child.name
                yield from walk(child, child_qual)
            else:
                yield from walk(child, qual)

    yield from walk(tree, "")


def walk_within_function(func: FunctionNode) -> Iterator[ast.AST]:
    """Walk a function's body without entering nested functions/classes.

    Used to attribute a node to its *innermost* function so scopes are
    analyzed exactly once.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def collect_lock_attrs(cls: ast.ClassDef) -> Set[str]:
    """Attribute names holding a lock-like object in a class.

    Covers instance attributes assigned from a lock factory in any
    method (``self._lock = threading.Lock()``) and class-level
    assignments (``_counter_lock = threading.Lock()``).
    """
    lock_attrs: Set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        name = dotted_name(value.func)
        if name is None or name.split(".")[-1] not in LOCK_FACTORY_NAMES:
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in ("self", "cls")
            ):
                lock_attrs.add(target.attr)
            elif isinstance(target, ast.Name):
                lock_attrs.add(target.id)
    return lock_attrs


def unwind_release_names(stmt: ast.AST) -> Set[str]:
    """Lock-release method names in a ``try``'s finally/except bodies."""
    if not isinstance(stmt, ast.Try):
        return set()
    unwind = list(stmt.finalbody)
    for handler in stmt.handlers:
        unwind.extend(handler.body)
    return {
        sub.func.attr
        for node in unwind
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Attribute)
        and sub.func.attr in ("release", "release_read", "release_write")
    }


def owner_lock_attrs(tree: ast.Module) -> Dict[int, FrozenSet[str]]:
    """``id(function)`` → lock attributes of its outermost enclosing class.

    The index the effect walkers read ``with self.<lock>:`` against,
    computed in one pass per module.  The outermost class answers for
    every function in its subtree — methods of a nested class and
    closures inside methods included — so a helper class sees the
    locks of the class that owns it.  Functions outside any class are
    absent.
    """
    index: Dict[int, FrozenSet[str]] = {}
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if not isinstance(node, ast.ClassDef):
            stack.extend(ast.iter_child_nodes(node))
            continue
        attrs = frozenset(collect_lock_attrs(node))
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                index[id(sub)] = attrs
    return index


def iter_lock_owner_methods(
    tree: ast.Module,
) -> Iterator[Tuple[str, FunctionNode, Set[str], Set[str]]]:
    """``(qualname, method, lock_attrs, owners)`` for shared-state rules.

    Yields the direct methods of every class that owns a lock, except
    the constructors (the instance is not shared yet while they run).
    ``owners`` are the names through which the class's own state is
    reached: ``self``, ``cls`` and the class name.
    """
    for cls_qual, cls in iter_classes(tree):
        lock_attrs = collect_lock_attrs(cls)
        if not lock_attrs:
            continue
        owners = {"self", "cls", cls.name}
        for child in cls.body:
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and child.name not in (
                "__init__",
                "__new__",
                "__post_init__",
            ):
                yield (
                    "%s.%s" % (cls_qual, child.name),
                    child,
                    lock_attrs,
                    owners,
                )


def _guards_lock(expr: ast.expr, lock_attrs: Set[str]) -> bool:
    """Whether a ``with`` item expression references a known lock attr.

    Matches ``with self._lock:``, ``with ObjectId._counter_lock:``,
    and context-manager accessors like ``with lock.read_locked():``.
    """
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Attribute) and (
            sub.attr in lock_attrs
            or sub.attr in ("read_locked", "write_locked")
        ):
            return True
        if isinstance(sub, ast.Name) and sub.id in lock_attrs:
            return True
    return False


def iter_lock_scoped_statements(
    stmts: Sequence[ast.stmt],
    qual: str,
    lock_attrs: Set[str],
    guarded: bool = False,
) -> Iterator[Tuple[ast.stmt, str, bool]]:
    """``(statement, qualname, guarded)`` for a method body, in order.

    ``guarded`` is whether a ``with`` on one of the class's locks
    encloses the statement.  A nested function restarts unguarded
    under its own qualname: a closure may run later on another thread,
    so its body is judged on its own terms.  ``with`` and ``def``
    statements themselves are not yielded, only what is inside them.
    """
    for stmt in stmts:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            now_guarded = guarded or any(
                _guards_lock(item.context_expr, lock_attrs)
                for item in stmt.items
            )
            yield from iter_lock_scoped_statements(
                stmt.body, qual, lock_attrs, now_guarded
            )
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from iter_lock_scoped_statements(
                stmt.body, "%s.%s" % (qual, stmt.name), lock_attrs
            )
            continue
        yield (stmt, qual, guarded)
        bodies = [
            getattr(stmt, name, None)
            for name in ("body", "orelse", "finalbody")
        ]
        bodies.extend(h.body for h in getattr(stmt, "handlers", []))
        for body in bodies:
            if isinstance(body, list) and body and isinstance(
                body[0], ast.stmt
            ):
                yield from iter_lock_scoped_statements(
                    body, qual, lock_attrs, guarded
                )
