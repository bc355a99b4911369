"""Bug class 2: targeting key built from a version fresher than its data.

The router's targeting memo (deleted since: every read now routes
from the live chunk map) captured ``metadata_version`` *before*
deriving a routing decision, so a concurrent split bumped the version
and the stale derivation landed under the old key where nothing read
it.  The
historical bug read the chunk map first and captured the version
afterwards: a mutation sliding into that window stores pre-split
routing under the *new* version's key — CC002 statically, a stale hit
stamped with the derivation-time snapshot at runtime.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple


class RouteCache:
    """Minimal version-keyed routing cache."""

    def __init__(self) -> None:
        self._entries: Dict[Hashable, Any] = {}

    def get(self, key: Hashable) -> Optional[Any]:
        value = self._entries.get(key)
        if value is None:
            return None
        return value

    def put(self, key: Hashable, value: Any) -> None:
        self._entries[key] = value


class Topology:
    """A chunk map with a version-keyed routing cache."""

    def __init__(self) -> None:
        self.metadata_version = 0
        self.chunk_map: Dict[str, str] = {}
        self.routes = RouteCache()

    def _bump_metadata_version(self) -> None:
        self.metadata_version += 1

    def move_chunk(self, chunk_id: str, shard_id: str) -> None:
        self.chunk_map[chunk_id] = shard_id
        self._bump_metadata_version()

    def route(self, interval: Tuple[int, int]) -> List[str]:
        # BUG: the chunk map is read before the version that will key
        # the result is captured; a move_chunk between the two lines
        # stores the stale owners under the *fresh* version's key.
        owners = sorted(self.chunk_map)
        version = self.metadata_version
        key = (interval, version)
        cached = self.routes.get(key)
        if cached is not None:
            return cached
        self.routes.put(key, owners)
        return owners
