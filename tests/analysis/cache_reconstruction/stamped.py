"""One bounded, stamp-validated LRU: the stamped cache the CC fixtures use.

An entry is stored with a *stamp* (the version the value was derived
under) and a lookup returns it only when the caller's stamp equals the
stored one.  A mismatch is a miss, counted once more as ``stale``, and
the entry stays where it is until a ``put`` under the same key
replaces it in place or the LRU ages it out.

The shipped tree memoizes nothing; this primitive lives beside the
cache-coherence reconstruction fixtures so that the static model
(which recognises it by its bare class name) and the runtime tracer
still have a stamped cache to check — ``stamp_after_read.py`` routes
through it, and ``tests/test_cache.py`` pins its contract.

The lock is a leaf: no method calls out while holding it, and callers
compute a missing value *between* ``get`` and ``put``, never under the
lock.
"""

from __future__ import annotations

import collections
import threading
from typing import Any, Hashable, NamedTuple, Optional

__all__ = ["StampedLRUCache"]


class _Entry(NamedTuple):
    stamp: Optional[Hashable]
    value: Any


class StampedLRUCache:
    """A thread-safe bounded LRU whose entries carry a freshness stamp.

    Counters (``stats()``): ``hits`` and ``misses`` add up to the
    lookups; ``stale`` counts the misses that found the key under
    another stamp; ``evictions`` counts entries the bound pushed out.
    Cached values are shared between callers and must be treated as
    read-only.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self._max_entries = max_entries
        self._entries: "collections.OrderedDict[Hashable, _Entry]" = (
            collections.OrderedDict()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.evictions = 0

    def get(self, key: Hashable, stamp: Optional[Hashable] = None) -> Any:
        """The value stored under ``key`` and ``stamp``, or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.stamp != stamp:
                self.misses += 1
                if entry is not None:
                    self.stale += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.value

    def put(
        self, key: Hashable, value: Any, stamp: Optional[Hashable] = None
    ) -> None:
        """Store ``value`` under ``key`` and ``stamp``, evicting LRU entries."""
        with self._lock:
            self._entries[key] = _Entry(stamp, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def stats(self) -> dict:
        """``entries / hits / misses / stale / evictions``."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "stale": self.stale,
                "evictions": self.evictions,
            }
