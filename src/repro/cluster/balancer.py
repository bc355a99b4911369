"""The balancer: even chunk distribution, zone enforcement.

MongoDB's background balancer migrates chunks so every shard holds
roughly the same number, and — when zones are defined — so every chunk
sits on a shard its zone allows (Section 3.3).  Here the balancer is
invoked synchronously by the cluster after loads and zone changes,
which makes experiments deterministic while preserving the placement
patterns the paper observes (adjacent ranges scattered across shards
under default balancing; contiguous ranges per shard under zones).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.cluster.catalog import CollectionMetadata
from repro.cluster.chunk import Chunk

__all__ = ["Balancer"]

MigrateFn = Callable[[CollectionMetadata, Chunk, str], None]


class Balancer:
    """Chunk-count balancing with optional zone constraints.

    ``migrate`` is supplied by the cluster and performs the actual data
    movement; the balancer only decides *what* moves *where*.
    """

    def __init__(self, shard_ids: List[str], migrate: MigrateFn) -> None:
        if not shard_ids:
            raise ValueError("balancer needs at least one shard")
        self._shard_ids = list(shard_ids)
        self._migrate = migrate

    def balance(self, metadata: CollectionMetadata) -> int:
        """Run rounds until balanced; returns the number of migrations."""
        moved = 0
        for chunk, dest in self.moves(metadata):
            self._migrate(metadata, chunk, dest)
            moved += 1
        return moved

    def moves(
        self, metadata: CollectionMetadata
    ) -> Iterator[Tuple[Chunk, str]]:
        """The ``(chunk, destination shard)`` migrations of one balance.

        Decided one at a time: each decision reads the placement the
        previous one left, so the consumer must give the chunk its new
        ``shard_id`` before asking for the next.  :meth:`balance` does
        so by migrating the data; planning a bulk load
        (``ShardedCluster._plan_layout``) re-labels chunks that hold no
        data yet.
        """
        if metadata.zone_set is not None:
            yield from self._enforce_zones(metadata)
        yield from self._even_out(metadata)

    # -- zone enforcement --------------------------------------------------------

    def _enforce_zones(
        self, metadata: CollectionMetadata
    ) -> Iterator[Tuple[Chunk, str]]:
        """Move every chunk fully covered by a zone onto its shard."""
        assert metadata.zone_set is not None
        for chunk in list(metadata.chunks):
            zone = metadata.zone_set.zone_for_range(
                chunk.min_key, chunk.max_key
            )
            if zone is not None and zone.shard_id != chunk.shard_id:
                yield chunk, zone.shard_id

    # -- count evening ------------------------------------------------------------

    def _movable_to(
        self, metadata: CollectionMetadata, chunk: Chunk, dest: str
    ) -> bool:
        """Whether zone rules allow the chunk on the destination shard."""
        if metadata.zone_set is None:
            return True
        zone = metadata.zone_set.zone_for_range(chunk.min_key, chunk.max_key)
        if zone is None:
            # Un-zoned chunks may live anywhere.
            return True
        return zone.shard_id == dest

    def _even_out(
        self, metadata: CollectionMetadata
    ) -> Iterator[Tuple[Chunk, str]]:
        # Cap the rounds defensively; each migration strictly reduces
        # the count spread, so this terminates far earlier in practice.
        for _round in range(len(metadata.chunks) + len(self._shard_ids)):
            counts: Dict[str, int] = {s: 0 for s in self._shard_ids}
            counts.update(metadata.chunk_counts())
            donor = max(counts, key=lambda s: (counts[s], s))
            recipient = min(counts, key=lambda s: (counts[s], s))
            if counts[donor] - counts[recipient] <= 1:
                break
            candidate = self._pick_chunk(metadata, donor, recipient)
            if candidate is None:
                break
            yield candidate, recipient

    def _pick_chunk(
        self, metadata: CollectionMetadata, donor: str, recipient: str
    ) -> Optional[Chunk]:
        for chunk in metadata.chunks_on_shard(donor):
            if self._movable_to(metadata, chunk, recipient):
                return chunk
        return None
