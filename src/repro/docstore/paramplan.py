"""Vestigial parameterized-plan keys, kept for the benchmark harness.

A read parses its query in one walk
(:func:`~repro.docstore.matcher.parse_query`), which is faster than
the value-free shape key plus the template bind this module used to
do (DESIGN.md §11).  No ``src/`` module imports this one.
``benchmarks/perf/layers.py`` still times :func:`param_shape_key`
(``docstore.shape_key_ms``) and :func:`bind_plan`
(``docstore.bind_ms``) by name; both go with ROADMAP item 1(d).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, List, Optional, Tuple

from repro.docstore.matcher import Matcher, parse_query
from repro.docstore.planner import (
    BOUND_OPS,
    QueryShape,
    is_operator_expression,
    is_plain_sequence,
)

__all__ = ["param_shape_key", "bind_plan"]

#: Operators a parameterizable path predicate may use.
_PARAM_OPS = frozenset(
    ("$eq", "$in", "$gt", "$gte", "$lt", "$lte", "$geoWithin", "$geoIntersects")
)


def _orset_component(clauses: Any) -> Optional[Tuple[str, str]]:
    """The ``("orset", path)`` key component for a ``$or``, or None.

    Accepts the single-path unions :func:`fold_or` folds: every clause
    ``{path: ops}`` on one shared path, with bound operators only.
    Clause *count* and bound values are erased — that is what lets
    every Hilbert rendering of every box share one plan.
    """
    if not is_plain_sequence(clauses):
        return None
    paths = set()
    for clause in clauses:
        if not isinstance(clause, Mapping) or len(clause) != 1:
            return None
        ((path, value),) = clause.items()
        if not is_operator_expression(value) or not BOUND_OPS.issuperset(value):
            return None
        paths.add(path)
    if len(paths) != 1:
        return None
    (path,) = paths
    if not isinstance(path, str) or path.startswith("$"):
        return None
    return ("orset", path)


def param_shape_key(
    collection: str, query: Mapping[str, Any]
) -> Optional[Tuple]:
    """Vestigial: a value-free structural key for a query, or None.

    The key is ``(collection, slots)`` where ``slots`` records, in
    query order, each constrained path with its operator-kind tuple.
    Returns None for any structure outside the parameterizable subset
    (logical operators other than the single-path ``$or``, unsupported
    operators, empty ``$in`` lists).  No read path computes it.
    """
    slots: List[Tuple] = []
    for key, value in query.items():
        if not isinstance(key, str):
            return None
        if key == "$or":
            component = _orset_component(value)
            if component is None:
                return None
            slots.append(component)
        elif key.startswith("$"):
            return None
        elif is_operator_expression(value):
            ops: List[str] = []
            for op, arg in value.items():
                if op not in _PARAM_OPS:
                    return None
                if op == "$in" and (
                    not is_plain_sequence(arg) or not len(arg)
                ):
                    return None
                ops.append(op)
            slots.append(("ops", key, tuple(ops)))
        else:
            slots.append(("eq", key))
    return (collection, tuple(slots))


def bind_plan(
    query: Mapping[str, Any], template: Tuple[Tuple, ...]
) -> Tuple[QueryShape, Matcher]:
    """Vestigial: :func:`~repro.docstore.matcher.parse_query`.

    ``template`` is ignored.  Kept, with :func:`param_shape_key`, for
    the benchmark harness's ``docstore.bind_ms`` row until ROADMAP
    item 1(d).
    """
    del template
    return parse_query(query)
