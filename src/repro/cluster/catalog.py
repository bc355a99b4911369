"""The config-server catalog: chunk maps and sharding metadata.

MongoDB keeps the routing table — which chunk covers which key range,
and which shard owns which chunk — on the config servers.  The catalog
here is that table for every sharded collection, with binary-searchable
chunk lookup, chunk splitting (including jumbo detection, Section 4.1.2
and 4.2.2), and zone bookkeeping.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.cluster.chunk import Chunk, KeyBound, ShardKeyPattern
from repro.cluster.zones import ZoneSet
from repro.errors import ShardingError

__all__ = ["CollectionMetadata", "ConfigCatalog"]

_MIN_KEY = attrgetter("min_key")


def _min_first_field(chunk: Chunk) -> Any:
    return chunk.min_key[0]


@dataclass
class CollectionMetadata:
    """Sharding state of one collection."""

    name: str
    pattern: ShardKeyPattern
    strategy: str  # "range" or "hashed"
    chunk_max_bytes: int
    chunks: List[Chunk] = field(default_factory=list)
    zone_set: Optional[ZoneSet] = None

    def __post_init__(self) -> None:
        if self.strategy not in ("range", "hashed"):
            raise ShardingError(
                "sharding strategy must be 'range' or 'hashed', got %r"
                % self.strategy
            )

    # -- chunk lookup ---------------------------------------------------------

    def chunk_for_key(self, key: KeyBound) -> Chunk:
        """The chunk covering a canonical key."""
        idx = bisect.bisect_right(self.chunks, key, key=_MIN_KEY) - 1
        if idx < 0:
            raise ShardingError("key %r below the chunk map" % (key,))
        chunk = self.chunks[idx]
        if not chunk.contains(key):
            raise ShardingError("key %r not covered by any chunk" % (key,))
        return chunk

    def chunks_spanning(self, spans: Iterable[Tuple[Any, Any]]) -> List[Chunk]:
        """Chunks whose first-field span can meet one of ``spans``, in map order.

        A chunk holds keys whose first field lies in ``[min_key[0],
        max_key[0]]``, so on the sorted, contiguous map the chunks that
        can meet a first-field span ``[lo, hi]`` are one run: from the
        last chunk with ``min_key < (lo,)`` up to the last chunk with
        ``min_key[0] <= hi``.  Both ends are bisected.  ``spans`` must
        ascend by ``lo``; overlapping runs merge, so no chunk repeats.
        """
        chunks = self.chunks
        out: List[Chunk] = []
        done = 0  # every chunk below this index is already in `out`
        for lo, hi in spans:
            start = max(done, bisect.bisect_left(chunks, (lo,), key=_MIN_KEY) - 1)
            stop = bisect.bisect_right(chunks, hi, key=_min_first_field)
            if stop > start:
                out.extend(chunks[start:stop])
                done = stop
        return out

    def chunk_index(self, chunk: Chunk) -> int:
        """Position of a chunk in the ordered map."""
        idx = bisect.bisect_left(self.chunks, chunk.min_key, key=_MIN_KEY)
        if idx >= len(self.chunks) or self.chunks[idx] is not chunk:
            raise ShardingError("chunk not present in the catalog")
        return idx

    # -- chunk surgery ----------------------------------------------------------

    def split_chunk(
        self, chunk: Chunk, split_key: KeyBound
    ) -> Tuple[Chunk, Chunk]:
        """Split a chunk at ``split_key`` (becomes the right chunk's min)."""
        if not (chunk.min_key < split_key < chunk.max_key):
            raise ShardingError(
                "split key %r outside chunk (%r, %r)"
                % (split_key, chunk.min_key, chunk.max_key)
            )
        idx = self.chunk_index(chunk)
        left = Chunk(
            min_key=chunk.min_key,
            max_key=split_key,
            shard_id=chunk.shard_id,
        )
        right = Chunk(
            min_key=split_key,
            max_key=chunk.max_key,
            shard_id=chunk.shard_id,
        )
        self.chunks[idx : idx + 1] = [left, right]
        return left, right

    def mark_jumbo(self, chunk: Chunk) -> None:
        """Flag a chunk as unsplittable."""
        chunk.jumbo = True

    # -- per-shard views ----------------------------------------------------------

    def chunks_on_shard(self, shard_id: str) -> List[Chunk]:
        """Chunks currently owned by one shard."""
        return [c for c in self.chunks if c.shard_id == shard_id]

    def chunk_counts(self) -> Dict[str, int]:
        """Chunk count per shard id."""
        counts: Dict[str, int] = {}
        for chunk in self.chunks:
            counts[chunk.shard_id] = counts.get(chunk.shard_id, 0) + 1
        return counts

    def shards_used(self) -> List[str]:
        """Sorted shard ids holding at least one chunk."""
        return sorted({c.shard_id for c in self.chunks})

    def validate(self) -> None:
        """Chunk map invariants: contiguous, ordered, non-overlapping."""
        if not self.chunks:
            raise ShardingError("collection %r has no chunks" % self.name)
        expected_min = self.pattern.global_min()
        for chunk in self.chunks:
            if chunk.min_key != expected_min:
                raise ShardingError(
                    "chunk map gap before %r" % (chunk.min_key,)
                )
            expected_min = chunk.max_key
        if expected_min != self.pattern.global_max():
            raise ShardingError("chunk map does not reach MaxKey")


class ConfigCatalog:
    """All sharded-collection metadata, as held by the config servers."""

    def __init__(self) -> None:
        self._collections: Dict[str, CollectionMetadata] = {}

    def add_collection(self, metadata: CollectionMetadata) -> None:
        """Register a newly sharded collection."""
        if metadata.name in self._collections:
            raise ShardingError(
                "collection %r is already sharded" % metadata.name
            )
        self._collections[metadata.name] = metadata

    def get(self, name: str) -> CollectionMetadata:
        """Metadata of a sharded collection."""
        try:
            return self._collections[name]
        except KeyError:
            raise ShardingError(
                "collection %r is not sharded" % name
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._collections

    def list_collections(self) -> List[str]:
        """Names of all sharded collections."""
        return list(self._collections)
