"""A minimal find() cursor with chainable sort/skip/limit."""

from __future__ import annotations

from typing import Iterator, List, Mapping, Optional

from repro.docstore import bson
from repro.docstore.document import MISSING, get_path

__all__ = ["Cursor"]


class Cursor:
    """Materialized query results with MongoDB-style modifiers.

    The underlying store executes eagerly (results are small relative to
    the simulated cluster), so the cursor is a thin, predictable wrapper
    rather than a streaming iterator.
    """

    def __init__(self, documents: List[dict]) -> None:
        self._documents = documents
        self._sort_spec: Optional[Mapping[str, int]] = None
        self._skip = 0
        self._limit: Optional[int] = None
        self._consumed = False

    def sort(self, spec: Mapping[str, int]) -> "Cursor":
        """Order results by the given field directions."""
        self._sort_spec = spec
        return self

    def skip(self, count: int) -> "Cursor":
        """Skip the first ``count`` results."""
        if count < 0:
            raise ValueError("skip must be non-negative")
        self._skip = count
        return self

    def limit(self, count: int) -> "Cursor":
        """Cap the number of results returned."""
        if count < 0:
            raise ValueError("limit must be non-negative")
        self._limit = count
        return self

    def _materialize(self) -> List[dict]:
        docs = list(self._documents)
        if self._sort_spec:
            for path, direction in reversed(list(self._sort_spec.items())):
                docs.sort(
                    key=lambda d: bson.sort_key(
                        None
                        if get_path(d, path) is MISSING
                        else get_path(d, path)
                    ),
                    reverse=direction == -1,
                )
        docs = docs[self._skip :]
        if self._limit is not None:
            docs = docs[: self._limit]
        return docs

    def __iter__(self) -> Iterator[dict]:
        return iter(self._materialize())

    def __len__(self) -> int:
        return len(self._materialize())

    def to_list(self) -> List[dict]:
        """Materialize the results as a list."""
        return self._materialize()
