"""Shard keys and chunks.

A sharded collection's key space is split into non-overlapping,
contiguous *chunks*, each assigned to a shard (Section 3.3).  Chunk
bounds are lexicographic over the shard-key fields, with MinKey/MaxKey
closing the ends, exactly as MongoDB represents them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Sequence, Tuple

from repro.docstore import bson
from repro.docstore.document import MISSING, get_path
from repro.docstore.index import hashed_value
from repro.errors import ShardingError

__all__ = ["ShardKeyPattern", "Chunk", "KeyBound", "GLOBAL_MIN", "GLOBAL_MAX"]

KeyBound = Tuple  # tuple of canonical per-field keys


@dataclass(frozen=True)
class ShardKeyPattern:
    """The shard key: ordered fields, each ranged or hashed.

    ``[("date", 1)]`` is the paper's baseline key;
    ``[("hilbertIndex", 1), ("date", 1)]`` the Hilbert approach's.
    """

    fields: Tuple[Tuple[str, Any], ...]

    def __post_init__(self) -> None:
        if not self.fields:
            raise ShardingError("shard key needs at least one field")
        for path, kind in self.fields:
            if kind not in (1, "hashed"):
                raise ShardingError(
                    "shard key field kind must be 1 or 'hashed', got %r"
                    % (kind,)
                )

    @classmethod
    def from_spec(
        cls, spec: Sequence[Tuple[str, Any]] | Mapping[str, Any]
    ) -> "ShardKeyPattern":
        """Build from a list or mapping of (path, kind) pairs."""
        items = spec.items() if isinstance(spec, Mapping) else spec
        return cls(tuple((path, kind) for path, kind in items))

    @property
    def paths(self) -> Tuple[str, ...]:
        """The shard-key dotted paths, in order."""
        return tuple(path for path, _ in self.fields)

    def __len__(self) -> int:
        return len(self.fields)

    def extract_raw(self, document: Mapping[str, Any]) -> Tuple[Any, ...]:
        """Raw shard-key values of a document (hashed fields hashed)."""
        out: List[Any] = []
        for path, kind in self.fields:
            value = get_path(document, path)
            if value is MISSING:
                value = None
            if kind == "hashed":
                value = hashed_value(value)
            out.append(value)
        return tuple(out)

    def extract_canonical(self, document: Mapping[str, Any]) -> KeyBound:
        """Canonical (comparable) shard key of a document."""
        return tuple(bson.sort_key(v) for v in self.extract_raw(document))

    def global_min(self) -> KeyBound:
        """The smallest possible key (all MinKey)."""
        return tuple(bson.sort_key(bson.MINKEY) for _ in self.fields)

    def global_max(self) -> KeyBound:
        """The largest possible key (all MaxKey)."""
        return tuple(bson.sort_key(bson.MAXKEY) for _ in self.fields)


GLOBAL_MIN = "global_min"
GLOBAL_MAX = "global_max"


@dataclass
class Chunk:
    """A contiguous shard-key range ``[min_key, max_key)`` on a shard."""

    min_key: KeyBound
    max_key: KeyBound
    shard_id: str
    doc_count: int = 0
    byte_size: int = 0
    jumbo: bool = False

    def __post_init__(self) -> None:
        if not self.min_key < self.max_key:
            raise ShardingError(
                "chunk range is empty: %r >= %r"
                % (self.min_key, self.max_key)
            )

    def contains(self, key: KeyBound) -> bool:
        """Whether a canonical key falls in [min, max)."""
        return self.min_key <= key < self.max_key

    def describe(self) -> dict:
        """The chunk as a readable mapping."""
        return {
            "min": self.min_key,
            "max": self.max_key,
            "shard": self.shard_id,
            "count": self.doc_count,
            "bytes": self.byte_size,
            "jumbo": self.jumbo,
        }
