"""Bug class 3: storage epoch bumped before the state swap is visible.

The LSM engine's ``_storage_epoch`` (deleted since: nothing cached by
it) was bumped *after* a flush or compaction published its new
structures.  The historical bug bumped first: a reader missing on the new epoch between the bump and the
swap fills its cache from the old structures and keeps serving them
under the new epoch's key, where nothing ever evicts them — CC004
statically, a stale hit under the ``storage`` domain at runtime.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional


class SegmentCache:
    """Minimal epoch-keyed lookup cache over storage segments."""

    def __init__(self) -> None:
        self._entries: Dict[Hashable, Any] = {}

    def get(self, key: Hashable) -> Optional[Any]:
        value = self._entries.get(key)
        if value is None:
            return None
        return value

    def put(self, key: Hashable, value: Any) -> None:
        self._entries[key] = value


class StorageEngine:
    """Segment registry whose readers key on the storage epoch."""

    def __init__(self) -> None:
        self.storage_epoch = 0
        self.segments: Dict[str, Dict[str, str]] = {}
        self.cache = SegmentCache()

    def _bump_storage_epoch(self) -> None:
        self.storage_epoch += 1

    def add_segment(self, name: str, segment: Dict[str, str]) -> None:
        self.segments[name] = segment
        self._bump_storage_epoch()

    def swap_segment(self, name: str, segment: Dict[str, str]) -> None:
        # BUG: the epoch moves before the swap is visible; a reader
        # missing on the new epoch in between caches the old segment
        # contents under the new epoch's key.
        self._bump_storage_epoch()
        self.segments[name] = segment

    def lookup(self, key: str, epoch: int) -> Optional[List[str]]:
        cache_key = (key, epoch)
        found = self.cache.get(cache_key)
        if found is not None:
            return found
        value = self._scan(key)
        self.cache.put(cache_key, value)
        return value

    def _scan(self, key: str) -> List[str]:
        return [
            name
            for name in sorted(self.segments)
            if key in self.segments[name]
        ]
