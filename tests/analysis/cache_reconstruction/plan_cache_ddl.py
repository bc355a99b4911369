"""Bug class 1: plan cache survives a DDL that changed the catalog.

The service used to keep a plan cache it invalidated on every
``create_index``/``drop_index`` (it now plans each read from the query
and stores nothing); the historical bug dropped an index without
either bumping the plan generation or invalidating, so cached plans
kept hinting an index that no longer existed.  Here
``drop_index`` mutates the catalog with no bump — CC003 statically,
a stale hit under the ``ddl`` domain at runtime.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple


class DdlPlanCache:
    """Minimal generation-keyed plan cache."""

    def __init__(self) -> None:
        self._entries: Dict[Hashable, Any] = {}

    def get(self, key: Hashable) -> Optional[Any]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        return entry

    def put(self, key: Hashable, value: Any) -> None:
        self._entries[key] = value


class CatalogService:
    """An index catalog with a generation-keyed plan cache in front."""

    def __init__(self) -> None:
        self.plan_generation = 0
        self.indexes: Dict[str, Tuple[str, ...]] = {}
        self.cache = DdlPlanCache()

    def _bump_plan_generation(self) -> None:
        self.plan_generation += 1

    def create_index(self, name: str, spec: Tuple[str, ...]) -> None:
        self.indexes[name] = spec
        self._bump_plan_generation()

    def drop_index(self, name: str) -> None:
        # BUG: the catalog mutates but the plan generation does not
        # move, so every cached plan keyed on the current generation
        # keeps hinting the dropped index.
        self.indexes.pop(name, None)

    def cached_plan(
        self, shape: Tuple[str, ...], generation: int
    ) -> List[str]:
        key = (shape, generation)
        found = self.cache.get(key)
        if found is not None:
            return found
        plan = self._plan(shape)
        self.cache.put(key, plan)
        return plan

    def _plan(self, shape: Tuple[str, ...]) -> List[str]:
        return [
            name
            for name in sorted(self.indexes)
            if self.indexes[name][: len(shape)] == shape
        ]
