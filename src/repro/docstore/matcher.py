"""Query-document evaluation (the MongoDB match language).

This module answers "does this document satisfy this query?" for the
operator subset the paper's workloads need — comparison operators,
``$in``, logical ``$and``/``$or``/``$nor``/``$not``, ``$exists``, and
the spatial ``$geoWithin`` — plus array-element semantics so the store
behaves like MongoDB on realistic documents.

Comparison operators are *type-bracketed* as in MongoDB: ``{$gt: 5}``
never matches a string, because values of different BSON types do not
compare in queries (they do in index/sort order, which is separate).

A :class:`Matcher` is the query compiled once
(:mod:`repro.docstore.compiler`); a malformed query raises
:class:`~repro.errors.QueryError` when the matcher is built.  The
tree-walking interpreter that states the same rules plainly is the
differential oracle in :mod:`repro.reference`.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, List, Mapping

from repro.docstore.compiler import _Tagged, all_of, compile_query
from repro.docstore.planner import is_operator_expression

__all__ = ["matches", "Matcher", "is_operator_expression"]


class Matcher:
    """A query compiled into a cheapest-first conjunction of predicates.

    ``matches`` is then cheap per document, which matters when the
    executor filters thousands of fetched documents.
    """

    __slots__ = ("predicates", "paths", "_droppable", "_residuals")

    def __init__(self, query: Mapping[str, Any]) -> None:
        self._adopt(compile_query(query))

    @classmethod
    def from_tagged(cls, tagged: List[_Tagged]) -> "Matcher":
        """A matcher over predicates the parameterized-plan binder
        (:mod:`repro.docstore.paramplan`) compiled while binding: the
        same construction sites :meth:`__init__` reaches, so the
        predicates are the ones it would have built."""
        self = cls.__new__(cls)
        self._adopt(tagged)
        return self

    def _adopt(self, tagged: List[_Tagged]) -> None:
        tagged = sorted(tagged, key=lambda item: item[0])  # cheapest first
        self.predicates = [item[1] for item in tagged]
        self.paths = [item[2] for item in tagged]
        self._droppable = [item[3] for item in tagged]
        self._residuals: dict = {}

    def matches(self, document: Mapping[str, Any]) -> bool:
        """Whether a document satisfies the query."""
        for predicate in self.predicates:
            if not predicate(document):
                return False
        return True

    def _kept(self, covered: FrozenSet[str]) -> List[int]:
        return [
            i
            for i, (path, droppable) in enumerate(
                zip(self.paths, self._droppable)
            )
            if not (droppable and path in covered)
        ]

    def residual(self, covered: FrozenSet[str]) -> Callable[[Any], bool]:
        """The per-document FETCH filter, given index-proved paths.

        The predicates that exact index bounds on ``covered`` already
        imply are dropped (MongoDB's FETCH ``filter``): every fetched
        document satisfies them.  Memoised per covered set — one
        matcher serves every targeted shard of a query.
        """
        rest = self._residuals.get(covered)
        if rest is None:
            rest = all_of([self.predicates[i] for i in self._kept(covered)])
            self._residuals[covered] = rest
        return rest

    def residual_paths(self, covered: FrozenSet[str]) -> list:
        """Sorted paths (or logical operators) :meth:`residual` tests."""
        return sorted({self.paths[i] for i in self._kept(covered)})


def matches(query: Mapping[str, Any], document: Mapping[str, Any]) -> bool:
    """One-shot convenience wrapper around :class:`Matcher`."""
    return Matcher(query).matches(document)
