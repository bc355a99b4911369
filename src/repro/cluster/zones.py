"""Zones: operator-defined shard-key ranges pinned to shards.

Section 3.3 and 4.x of the paper use zones to force data locality: one
zone per shard, with boundaries computed by ``$bucketAuto`` so each
zone holds roughly the same number of documents.  Zone ranges, like
chunks, are lower-inclusive / upper-exclusive and must not overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cluster.chunk import KeyBound
from repro.errors import ZoneError

__all__ = ["Zone", "ZoneSet"]


@dataclass(frozen=True)
class Zone:
    """A named key range ``[min_key, max_key)`` assigned to one shard."""

    name: str
    min_key: KeyBound
    max_key: KeyBound
    shard_id: str

    def __post_init__(self) -> None:
        if not self.min_key < self.max_key:
            raise ZoneError(
                "zone %r has an empty range: %r >= %r"
                % (self.name, self.min_key, self.max_key)
            )

    def contains(self, key: KeyBound) -> bool:
        """Whether a canonical key falls in [min, max)."""
        return self.min_key <= key < self.max_key

    def covers_range(self, lo: KeyBound, hi: KeyBound) -> bool:
        """Whether the chunk range [lo, hi) lies fully inside the zone."""
        return self.min_key <= lo and hi <= self.max_key


class ZoneSet:
    """A validated, ordered set of non-overlapping zones."""

    def __init__(self, zones: Sequence[Zone]) -> None:
        ordered = sorted(zones, key=lambda z: z.min_key)
        for a, b in zip(ordered, ordered[1:]):
            if b.min_key < a.max_key:
                raise ZoneError(
                    "zones %r and %r overlap" % (a.name, b.name)
                )
        self._zones: List[Zone] = list(ordered)

    def __iter__(self):
        return iter(self._zones)

    def __len__(self) -> int:
        return len(self._zones)

    def zone_for_range(
        self, lo: KeyBound, hi: KeyBound
    ) -> Optional[Zone]:
        """The zone fully covering [lo, hi), or None.

        A chunk straddling a zone boundary belongs to no single zone;
        the balancer must split it first (which MongoDB does when zones
        are applied to an existing collection).
        """
        for zone in self._zones:
            if zone.covers_range(lo, hi):
                return zone
        return None

    def boundaries(self) -> List[KeyBound]:
        """All distinct zone edge keys, sorted (split targets)."""
        edges = set()
        for zone in self._zones:
            edges.add(zone.min_key)
            edges.add(zone.max_key)
        return sorted(edges)
