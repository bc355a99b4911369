"""Secondary indexes: single-field, compound, 2dsphere, hashed.

An index maps extracted document keys to record ids through a
:class:`~repro.docstore.btree.BPlusTree` — the same architecture the
paper describes for MongoDB (Section 3.1-3.2):

* plain fields index their (canonicalized) values;
* ``2dsphere`` fields index the GeoHash cell of the point, 26 bits by
  default, exactly the default precision the paper cites;
* ``hashed`` fields index a 64-bit hash of the value (used by hashed
  sharding in the ablation study).

Storage keys are tuples of *canonical* per-field keys (see
:func:`repro.docstore.bson.sort_key`) with the record id appended as a
``(RID_RANK, rid)`` pseudo-key, so duplicate logical keys remain
distinct entries and every key element is a rank-tagged tuple that
compares safely against the scan sentinels.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.docstore import bson
from repro.docstore.btree import BPlusTree
from repro.docstore.document import MISSING, get_path
from repro.errors import DuplicateKeyError, IndexError_
from repro.geo.geojson import GeoJSONError
from repro.sfc.geohash import GeoHashGrid

__all__ = [
    "ASCENDING",
    "DESCENDING",
    "GEOSPHERE",
    "HASHED",
    "RID_RANK",
    "SCAN_BOTTOM",
    "SCAN_TOP",
    "IndexField",
    "IndexDefinition",
    "Index",
    "hashed_value",
]

ASCENDING = 1
DESCENDING = -1
GEOSPHERE = "2dsphere"
HASHED = "hashed"

#: Rank tag for the record-id pseudo-key appended to every entry.
RID_RANK = 50
#: Sentinels that sort below/above every canonical key element.
SCAN_BOTTOM = (-1,)
SCAN_TOP = (101,)


def hashed_value(value: Any) -> int:
    """Deterministic 63-bit hash used by hashed indexes and sharding."""
    digest = hashlib.md5(bson.key_bytes([value])).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class IndexField:
    """One component of an index definition."""

    path: str
    kind: Any = ASCENDING  # 1, -1, "2dsphere", or "hashed"

    def __post_init__(self) -> None:
        if self.kind not in (ASCENDING, DESCENDING, GEOSPHERE, HASHED):
            raise IndexError_("unsupported index kind %r" % (self.kind,))


@dataclass(frozen=True)
class IndexDefinition:
    """A named index specification, MongoDB-style.

    ``fields`` preserves declaration order, which — as Section 3.1
    stresses — determines which queries the index can serve.
    """

    fields: Tuple[IndexField, ...]
    name: str = ""
    unique: bool = False
    geohash_bits: int = 26

    def __post_init__(self) -> None:
        if not self.fields:
            raise IndexError_("an index needs at least one field")
        if len(self.fields) > 32:
            raise IndexError_("compound indexes support at most 32 fields")
        if not self.name:
            generated = "_".join(
                "%s_%s" % (f.path, f.kind) for f in self.fields
            )
            object.__setattr__(self, "name", generated)

    @classmethod
    def from_spec(
        cls,
        spec: Sequence[Tuple[str, Any]] | Mapping[str, Any],
        name: str = "",
        unique: bool = False,
        geohash_bits: int = 26,
    ) -> "IndexDefinition":
        """Build from ``[("location", "2dsphere"), ("date", 1)]`` or a
        mapping with the same shape."""
        items = spec.items() if isinstance(spec, Mapping) else spec
        fields = tuple(IndexField(path, kind) for path, kind in items)
        return cls(
            fields=fields, name=name, unique=unique, geohash_bits=geohash_bits
        )

    @property
    def paths(self) -> Tuple[str, ...]:
        """The indexed dotted paths, in declaration order."""
        return tuple(f.path for f in self.fields)

    def field_kind(self, path: str) -> Optional[Any]:
        """The kind of a path in this index, or None."""
        for f in self.fields:
            if f.path == path:
                return f.kind
        return None


class Index:
    """A live index: definition + B+tree + maintenance statistics."""

    def __init__(self, definition: IndexDefinition, order: int = 64) -> None:
        self.definition = definition
        self.tree = BPlusTree(order=order)
        self._grid = GeoHashGrid(definition.geohash_bits)
        # Expanded raw key tuples per rid (several when multikey), kept
        # so removals need not re-extract from the document.
        self._raw_keys: dict[int, List[Tuple[Any, ...]]] = {}
        # How many rids hold more than one raw key (is_multikey in O(1)).
        self._multikey_rids = 0
        if definition.unique:
            self._seen: dict[Tuple, int] = {}
        else:
            self._seen = {}
        # Per-field numeric (min, max) over inserted keys, for costing.
        self._field_stats: List[Optional[Tuple[float, float]]] = [
            None for _ in definition.fields
        ]

    # -- key extraction ------------------------------------------------------

    def extract_raw(self, document: Mapping[str, Any]) -> Tuple[Any, ...]:
        """Raw per-field key values for a document.

        Missing fields index as ``None`` (MongoDB indexes missing
        fields under null).  2dsphere fields become integer GeoHash
        cells — a *list* of cells for LineString values, which makes
        the index multikey exactly as MongoDB's 2dsphere is for
        non-point geometries.  Hashed fields become 63-bit hashes.
        """
        out: List[Any] = []
        for f in self.definition.fields:
            value = get_path(document, f.path)
            if value is MISSING:
                value = None
            if f.kind == GEOSPHERE:
                out.append(self._extract_geo(f.path, value))
            elif f.kind == HASHED:
                out.append(hashed_value(value))
            else:
                out.append(value)
        return tuple(out)

    def _extract_geo(self, path: str, value: Any):
        if value is None:
            return None
        from repro.geo.geojson import parse_geometry
        from repro.geo.geometry import LineString, Point, Polygon

        try:
            geometry = parse_geometry(value)
        except GeoJSONError as exc:
            raise IndexError_(
                "field %r is not indexable as 2dsphere: %s" % (path, exc)
            ) from exc
        if isinstance(geometry, Point):
            return self._grid.encode(geometry.lon, geometry.lat)
        if isinstance(geometry, (LineString, Polygon)):
            # One index key per grid cell the geometry occupies (the
            # multikey form MongoDB's 2dsphere uses for non-points).
            step = min(
                360.0 / self._grid.cells_per_side,
                180.0 / self._grid.cells_per_side,
            )
            cells = {
                self._grid.encode(p.lon, p.lat)
                for p in geometry.sample(step)
            }
            return sorted(cells)
        raise IndexError_(
            "field %r holds an unindexable geometry %r" % (path, value)
        )

    @staticmethod
    def _expand_multikey(raw: Tuple[Any, ...]) -> List[Tuple[Any, ...]]:
        """One raw key per array element (MongoDB multikey semantics).

        At most one field may hold an array, matching MongoDB's
        one-multikey-field-per-index rule.
        """
        array_positions = [
            i for i, v in enumerate(raw) if isinstance(v, list)
        ]
        if not array_positions:
            return [raw]
        if len(array_positions) > 1:
            raise IndexError_(
                "at most one indexed field may hold an array"
            )
        position = array_positions[0]
        elements = raw[position] or [None]
        seen = set()
        expanded = []
        for element in elements:
            marker = repr(bson.sort_key(element))
            if marker in seen:
                continue
            seen.add(marker)
            expanded.append(
                raw[:position] + (element,) + raw[position + 1 :]
            )
        return expanded

    def canonical_key(self, raw: Sequence[Any]) -> Tuple[Tuple, ...]:
        """Canonical (comparable) form of raw key values."""
        return tuple(bson.sort_key(v) for v in raw)

    # -- maintenance -----------------------------------------------------------

    def insert_document(self, rid: int, document: Mapping[str, Any]) -> None:
        """Add a document's key(s) to the index."""
        for key in self._admit(rid, document):
            self.tree.insert(key, rid)

    def build(self, records: Iterable[Tuple[int, Mapping[str, Any]]]) -> None:
        """Index ``(rid, document)`` pairs into this empty index at once.

        Leaves the index as :meth:`insert_document` on each pair would
        (same entries, uniqueness check, multikey and field statistics)
        but sorts the storage keys once and builds the B-tree bottom-up
        instead of descending it per key.  An error (duplicate key,
        unindexable value) leaves the index half-filled: build a fresh
        ``Index`` and discard it on failure.
        """
        keys: List[Tuple[Tuple, ...]] = []
        for rid, document in records:
            keys.extend(self._admit(rid, document))
        keys.sort()
        self.tree.bulk_build(keys, [key[-1][1] for key in keys])

    def _admit(
        self, rid: int, document: Mapping[str, Any]
    ) -> List[Tuple[Tuple, ...]]:
        """Record a document in everything but the tree; its storage keys."""
        raws = self._expand_multikey(self.extract_raw(document))
        canons = [self.canonical_key(raw) for raw in raws]
        if self.definition.unique:
            if len(raws) != 1:
                raise IndexError_(
                    "unique index %r cannot be multikey"
                    % self.definition.name
                )
            if canons[0] in self._seen:
                raise DuplicateKeyError(
                    "duplicate key for unique index %r: %r"
                    % (self.definition.name, raws[0])
                )
            self._seen[canons[0]] = rid
        for raw in raws:
            for i, value in enumerate(raw):
                num = _as_float(value)
                if num is None:
                    continue
                stats = self._field_stats[i]
                if stats is None:
                    self._field_stats[i] = (num, num)
                else:
                    lo, hi = stats
                    if num < lo or num > hi:
                        self._field_stats[i] = (min(lo, num), max(hi, num))
        self._raw_keys[rid] = raws
        if len(raws) > 1:
            self._multikey_rids += 1
        rid_key = ((RID_RANK, rid),)
        return [canon + rid_key for canon in canons]

    def remove_document(self, rid: int, document: Mapping[str, Any]) -> None:
        """Remove a document's key(s) from the index."""
        raws = self._raw_keys.pop(rid, None)
        if raws is None:
            raws = self._expand_multikey(self.extract_raw(document))
        elif len(raws) > 1:
            self._multikey_rids -= 1
        for raw in raws:
            canon = self.canonical_key(raw)
            self.tree.remove(canon + ((RID_RANK, rid),), rid)
            if self.definition.unique:
                self._seen.pop(canon, None)

    # -- introspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tree)

    @property
    def name(self) -> str:
        """The index's name."""
        return self.definition.name

    @property
    def grid(self) -> GeoHashGrid:
        """The GeoHash grid backing 2dsphere fields."""
        return self._grid

    def raw_key_of(self, rid: int) -> Optional[Tuple[Any, ...]]:
        """First raw key tuple of a record (its only one unless multikey)."""
        raws = self._raw_keys.get(rid)
        return raws[0] if raws else None

    def is_multikey(self) -> bool:
        """Whether any entry came from an array expansion."""
        return self._multikey_rids > 0

    def iter_storage_keys(self):
        """Yield full canonical storage keys in index order (sizing)."""
        for key, _rid in self.tree.scan_all():
            yield key

    def scan_ranges(self, ranges):
        """Yield ``(storage_key, rid)`` across sorted key ranges.

        Thin delegate to :meth:`BPlusTree.scan_ranges`: one descent,
        then leaf-to-leaf skips between ranges.  ``ranges`` holds
        ``(lo, hi, lo_inclusive, hi_inclusive)`` tuples of storage-key
        prefixes, ascending and non-overlapping.
        """
        return self.tree.scan_ranges(ranges)

    def field_stats(self, position: int) -> Optional[Tuple[float, float]]:
        """Observed numeric (min, max) for a field, or None."""
        return self._field_stats[position]


def _as_float(value: Any) -> Optional[float]:
    """Numeric projection of a value for selectivity estimation."""
    import datetime as _dt

    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, _dt.datetime):
        stamp = value
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=_dt.timezone.utc)
        return stamp.timestamp()
    return None
