"""Bug class 4: a statistics catalog that survives a chunk split.

The catalog the query service shipped until it was deleted with the
cost-based chooser (a ``StampedLRUCache``, now :mod:`.stamped`) stamped
every ANALYZE result with the ``metadata_version`` in force when the
pass started and rejected reads whose stamp no longer matched.  The
historical bug cached the ANALYZE output under the bare collection
name: nothing in the key, the read path, or the mutation sites ever
retired an entry, so the first chunk split left the cost model
planning against a chunk count that no longer existed — CC001
statically, a stale hit of the same family at runtime.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple


class CatalogCache:
    """Minimal per-collection statistics store."""

    def __init__(self) -> None:
        self._entries: Dict[str, Any] = {}

    def get(self, collection: str) -> Optional[Any]:
        return self._entries.get(collection)

    def put(self, collection: str, stats: Any) -> None:
        self._entries[collection] = stats


class StatsCluster:
    """A sharded collection whose ANALYZE output is cached."""

    def __init__(self) -> None:
        self.metadata_version = 0
        self.chunks: Dict[str, Tuple[int, int]] = {"c0": (0, 100)}
        self.catalog = CatalogCache()

    def _bump_metadata_version(self) -> None:
        self.metadata_version += 1

    def split_chunk(self, chunk_id: str, at: int) -> None:
        low, high = self.chunks.pop(chunk_id)
        self.chunks[chunk_id + "L"] = (low, at)
        self.chunks[chunk_id + "R"] = (at, high)
        self._bump_metadata_version()

    def analyze(self, collection: str) -> Dict[str, int]:
        stats = {"chunks": len(self.chunks)}
        self.catalog.put(collection, stats)
        return stats

    def stats_for(self, collection: str) -> Optional[Dict[str, int]]:
        # BUG: the key is the bare collection name — no version token,
        # no stamp validation at hit time, and no mutation site ever
        # invalidates — so the entry built before a split keeps
        # feeding the cost model a chunk map that no longer exists.
        return self.catalog.get(collection)
