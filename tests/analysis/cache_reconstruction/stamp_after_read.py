"""Bug class 5: the stamped primitive stamped with a version read too late.

The router's targeting memo (deleted since: every read now routes
from the live chunk map) read ``metadata_version`` *before* the chunk
map and handed it to :class:`~.stamped.StampedLRUCache` as the entry's
``stamp=``: a split sliding in between filed the stale decision under
the old stamp, which no later lookup accepted.  The bug reads the chunk
map first and the version afterwards — a mutation in that window files
pre-split routing under the *new* stamp, where every lookup at that
version hits it.  The stamp is the fill's version, so this is CC002
statically, and a stale hit against the derivation-time snapshot at
runtime.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from tests.analysis.cache_reconstruction.stamped import StampedLRUCache


class Topology:
    """A chunk map with a stamped routing memo."""

    def __init__(self) -> None:
        self.metadata_version = 0
        self.chunk_map: Dict[str, str] = {}
        self.routes = StampedLRUCache()

    def _bump_metadata_version(self) -> None:
        self.metadata_version += 1

    def move_chunk(self, chunk_id: str, shard_id: str) -> None:
        self.chunk_map[chunk_id] = shard_id
        self._bump_metadata_version()

    def route(self, interval: Tuple[int, int]) -> List[str]:
        cached = self.routes.get(interval, stamp=self.metadata_version)
        if cached is not None:
            return cached
        # BUG: the chunk map is read before the version that stamps the
        # result; a move_chunk between the two lines files the stale
        # owners under the *fresh* version's stamp.
        owners = sorted(self.chunk_map)
        version = self.metadata_version
        self.routes.put(interval, owners, stamp=version)
        return owners
