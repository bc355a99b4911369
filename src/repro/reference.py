"""The paper-faithful reference read path — the differential oracle.

Production reads take one path (:meth:`ShardedCluster.find`: bind or
analyze, compile, one leaf-run index scan, residual filter, structural
copy).  This module answers the same query the slow, obvious way:
uncached routing that tests every chunk of the map
(:func:`reference_target_chunks`, where production bisects the chunk
list first), every shard planning on its own (no shared hinted
bounds), a key-by-key bounds check with one B-tree descent per seek,
the whole predicate interpreted on every fetched document
(:func:`reference_matches`, a tree-walking interpreter that tests every
``$or`` clause by clause and builds nothing production builds),
``copy.deepcopy`` results, shards one after another.  Documents must
come out byte-identical and ``keysExamined`` / ``docsExamined`` /
``seeks`` / targeted shards identical per shard — those counters are
the paper's results.  It also holds the curve oracle: the classic
rotate/flip Hilbert pair and a plain bit-interleave Morton pair, which
address cells without the quadrant tables
:class:`~repro.sfc.ranges.QuadtreeCurve` reads.  Nothing under
``src/`` imports this module; the differential suites do (DESIGN.md §8).
"""

from __future__ import annotations

import bisect
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.catalog import CollectionMetadata
from repro.cluster.cluster import ClusterFindResult, ShardedCluster
from repro.cluster.metrics import ClusterQueryStats
from repro.cluster.router import (
    LexBoxChecker,
    TargetingResult,
    shard_key_intervals,
)
from repro.docstore import bson
from repro.docstore.collection import Collection, FindResult
from repro.docstore.compiler import TYPE_NAME_RANKS, candidates
from repro.docstore.document import MISSING, deep_copy_document, get_path
from repro.docstore.executor import ExecutionStats, _advancing
from repro.docstore.index import SCAN_TOP
from repro.docstore.planner import (
    IndexScanPlan,
    Interval,
    QueryShape,
    analyze_query,
    geo_region,
    is_operator_expression,
    plan_query,
)
from repro.errors import QueryError
from repro.geo.geojson import parse_geometry
from repro.geo.geometry import BoundingBox, LineString, Point, Polygon
from repro.sfc.geohash import GeoHashGrid
from repro.sfc.hilbert import HilbertCurve2D
from repro.sfc.ranges import QuadtreeCurve

__all__ = [
    "reference_encode_cell",
    "reference_decode_cell",
    "reference_target_chunks",
    "reference_index_scan",
    "reference_matches",
    "reference_find",
    "reference_cluster_find",
]


def _rotate(n: int, x: int, y: int, rx: int, ry: int) -> Tuple[int, int]:
    """Rotate/flip a quadrant so the curve orientation is preserved."""
    if ry == 0:
        if rx == 1:
            x = n - 1 - x
            y = n - 1 - y
        x, y = y, x
    return x, y


def reference_encode_cell(curve: QuadtreeCurve, cx: int, cy: int) -> int:
    """``curve.encode_cell(cx, cy)`` without the quadrant tables.

    Hilbert by the classic rotate/flip loop; Z-order by a plain bit
    interleave (``cx`` on the even bits); GeoHash is Z-order with the
    axes swapped (longitude takes the high bit of each pair).
    """
    if isinstance(curve, HilbertCurve2D):
        d = 0
        s = 1 << (curve.order - 1)
        while s > 0:
            rx = 1 if (cx & s) > 0 else 0
            ry = 1 if (cy & s) > 0 else 0
            d += s * s * ((3 * rx) ^ ry)
            cx, cy = _rotate(s, cx, cy, rx, ry)
            s >>= 1
        return d
    if isinstance(curve, GeoHashGrid):
        cx, cy = cy, cx
    d = 0
    for k in range(curve.order):
        d |= ((cx >> k) & 1) << (2 * k) | ((cy >> k) & 1) << (2 * k + 1)
    return d


def reference_decode_cell(curve: QuadtreeCurve, d: int) -> Tuple[int, int]:
    """``curve.decode_cell(d)`` without the quadrant tables."""
    x = y = 0
    if isinstance(curve, HilbertCurve2D):
        s = 1
        while s < 1 << curve.order:
            rx = 1 & (d >> 1)
            ry = 1 & (d ^ rx)
            x, y = _rotate(s, x, y, rx, ry)
            x += s * rx
            y += s * ry
            d >>= 2
            s <<= 1
        return x, y
    for k in range(curve.order):
        x |= ((d >> (2 * k)) & 1) << k
        y |= ((d >> (2 * k + 1)) & 1) << k
    return (y, x) if isinstance(curve, GeoHashGrid) else (x, y)


def reference_target_chunks(
    metadata: CollectionMetadata, shape: QueryShape
) -> TargetingResult:
    """:func:`~repro.cluster.router.target_chunks`, testing every chunk."""
    intervals = shard_key_intervals(metadata.pattern, shape)
    if intervals is None:
        return TargetingResult(
            list(metadata.chunks), metadata.shards_used(), True, None
        )
    checker = LexBoxChecker(intervals)
    chunks = [
        c for c in metadata.chunks if checker.intersects(c.min_key, c.max_key)
    ]
    shard_ids = sorted({c.shard_id for c in chunks})
    return TargetingResult(chunks, shard_ids, False, intervals)


def reference_matches(
    query: Mapping[str, Any], document: Mapping[str, Any]
) -> bool:
    """Whether a document satisfies a query, by walking the query.

    The match language's rules stated plainly, re-read for every
    document: operators dispatched by name, arguments compared through
    ``bson.compare``, geo regions parsed per document, and every
    ``$or`` tested clause by clause — what the compiled
    :class:`~repro.docstore.matcher.Matcher` must agree with.
    """
    return _match_query(query, document)


def _comparable(a: Any, b: Any) -> bool:
    """Whether two values fall in the same comparison bracket."""
    try:
        return bson.type_rank(a) == bson.type_rank(b)
    except TypeError:
        return False


def _values_equal(a: Any, b: Any) -> bool:
    if not _comparable(a, b):
        return False
    return bson.compare(a, b) == 0


def _values_equal_missing(arg: Any) -> bool:
    """Whether a missing field counts as equal to ``arg`` (null only)."""
    return arg is None


def _match_query(query: Mapping[str, Any], document: Mapping[str, Any]) -> bool:
    for key, value in query.items():
        if key == "$and":
            if not all(_match_query(c, document) for c in value):
                return False
        elif key == "$or":
            if not any(_match_query(c, document) for c in value):
                return False
        elif key == "$nor":
            if any(_match_query(c, document) for c in value):
                return False
        elif is_operator_expression(value):
            if not _match_operators(document, key, value):
                return False
        elif not _match_eq(document, key, value):
            return False
    return True


def _match_eq(document: Mapping[str, Any], path: str, expected: Any) -> bool:
    actual = get_path(document, path)
    if actual is MISSING:
        return expected is None
    return any(_values_equal(c, expected) for c in candidates(actual))


def _match_operators(
    document: Mapping[str, Any], path: str, ops: Mapping[str, Any]
) -> bool:
    actual = get_path(document, path)
    return _apply_all(actual, ops)


def _apply_all(actual: Any, ops: Mapping[str, Any]) -> bool:
    return all(_apply_operator(actual, op, arg) for op, arg in ops.items())


def _apply_operator(actual: Any, op: str, arg: Any) -> bool:
    if op == "$exists":
        present = actual is not MISSING
        return present == bool(arg)
    if op == "$not":
        if not isinstance(arg, Mapping):
            raise QueryError("$not expects an operator document")
        return not _apply_all(actual, arg)
    if op in ("$geoWithin", "$geoIntersects"):
        return _match_geo(actual, arg, intersects=op == "$geoIntersects")

    if actual is MISSING:
        # Missing fields only match null equality / $ne / $nin.
        if op == "$eq":
            return arg is None
        if op == "$ne":
            return not _values_equal_missing(arg)
        if op == "$in":
            return any(a is None for a in arg)
        if op == "$nin":
            return not any(a is None for a in arg)
        return False

    cands = list(candidates(actual))
    if op == "$eq":
        return any(_values_equal(c, arg) for c in cands)
    if op == "$ne":
        return not any(_values_equal(c, arg) for c in cands)
    if op in ("$in", "$nin"):
        if not isinstance(arg, Sequence) or isinstance(arg, (str, bytes)):
            raise QueryError("%s expects an array" % op)
        hit = any(_values_equal(c, a) for c in cands for a in arg)
        return hit if op == "$in" else not hit
    if op in ("$gt", "$gte", "$lt", "$lte"):
        for c in cands:
            if not _comparable(c, arg):
                continue
            cmp = bson.compare(c, arg)
            if op == "$gt" and cmp > 0:
                return True
            if op == "$gte" and cmp >= 0:
                return True
            if op == "$lt" and cmp < 0:
                return True
            if op == "$lte" and cmp <= 0:
                return True
        return False
    if op == "$mod":
        divisor, remainder = arg
        return any(
            isinstance(c, (int, float))
            and not isinstance(c, bool)
            and int(c) % int(divisor) == int(remainder)
            for c in cands
        )
    if op == "$size":
        return (
            isinstance(actual, Sequence)
            and not isinstance(actual, (str, bytes))
            and len(actual) == arg
        )
    if op == "$type":
        try:
            return bson.type_rank(actual) == TYPE_NAME_RANKS[arg]
        except KeyError:
            raise QueryError("unknown $type alias %r" % (arg,)) from None
    raise QueryError("unsupported operator %r" % op)


def _match_geo(actual: Any, arg: Any, intersects: bool) -> bool:
    if actual is MISSING:
        return False
    region = geo_region(arg)
    try:
        geometry = parse_geometry(actual)
    except Exception:
        return False
    if isinstance(geometry, Point):
        return region.contains(geometry)
    box = region if isinstance(region, BoundingBox) else region.bbox
    if isinstance(geometry, LineString):
        if intersects:
            # $geoIntersects: any crossing counts.  Exact for the
            # rectangular regions the workloads use.
            return geometry.intersects_box(box)
        # $geoWithin: every vertex (and hence, for rectangles, every
        # segment) must lie inside.
        return all(region.contains(p) for p in geometry.points)
    if isinstance(geometry, Polygon):
        if intersects:
            return geometry.intersects_box(box)
        return all(region.contains(p) for p in geometry.ring)
    return False


class _BoundsChecker:
    """MongoDB's IndexBoundsChecker, one key at a time.

    ``bounds`` holds one sorted, disjoint interval list per bounded
    index field (a prefix of the key).  ``check`` returns one of:

    * ``("match", None)`` — the key lies inside every field's bounds;
    * ``("seek", target)`` — the key fails; resume at ``target``
      (strictly greater than the key, guaranteeing progress);
    * ``("done", None)`` — no in-bounds key can follow.

    Production inlines this test into its leaf-run kernel
    (:func:`~repro.docstore.executor.run_index_scan`); the oracle keeps
    the plain form.
    """

    def __init__(self, bounds: Sequence[Sequence[Interval]]) -> None:
        self._bounds = bounds
        self._lower_bounds = [
            [iv.lo for iv in intervals] for intervals in bounds
        ]

    def start_key(self) -> Tuple:
        return tuple(ivs[0].lo for ivs in self._bounds)

    def check(self, key: Tuple) -> Tuple[str, Optional[Tuple]]:
        for depth, intervals in enumerate(self._bounds):
            value = key[depth]
            state, interval_lo = self._locate(
                intervals, self._lower_bounds[depth], value
            )
            if state == "inside":
                continue
            if state == "gap":
                # Next valid position: jump this field to the next
                # interval's lower bound, lowest suffix below it.
                target = (
                    key[:depth]
                    + (interval_lo,)
                    + self._lowest_suffix(depth + 1)
                )
                return "seek", target
            if state == "on_excluded":
                # Sitting exactly on an excluded bound: skip every key
                # sharing this prefix value.
                return "seek", key[: depth + 1] + (SCAN_TOP,)
            # state == "above": this field ran past its last interval;
            # advance the previous field.
            if depth == 0:
                return "done", None
            return "seek", key[:depth] + (SCAN_TOP,)
        return "match", None

    def _lowest_suffix(self, depth: int) -> Tuple:
        return tuple(
            self._bounds[i][0].lo for i in range(depth, len(self._bounds))
        )

    @staticmethod
    def _locate(
        intervals: Sequence[Interval],
        lower_bounds: Sequence[Tuple],
        value: Tuple,
    ) -> Tuple[str, Optional[Tuple]]:
        """Where ``value`` sits relative to the sorted interval list."""
        position = bisect.bisect_right(lower_bounds, value)
        if position == 0:
            return "gap", intervals[0].lo
        iv = intervals[position - 1]
        if value == iv.lo and not iv.lo_inclusive:
            return "on_excluded", None
        if value < iv.hi or (value == iv.hi and iv.hi_inclusive):
            return "inside", None
        if value == iv.hi:  # exclusive hi
            return "on_excluded", None
        # Past this interval: the next one (if any) starts the gap.
        if position < len(intervals):
            return "gap", intervals[position].lo
        return "above", None


def reference_index_scan(plan: IndexScanPlan, stats: ExecutionStats) -> List[int]:
    """:func:`~repro.docstore.executor.run_index_scan`, key by key, one
    descent per seek."""
    tree = plan.index.tree
    checker = _BoundsChecker(plan.bounds)
    rids: List[int] = []
    seen: set = set()
    seek_key = checker.start_key()
    while seek_key is not None:
        stats.seeks += 1
        next_seek = None
        for key, rid in tree.seek(seek_key):
            stats.keys_examined += 1
            verdict, target = checker.check(key)
            if verdict == "match":
                if rid not in seen:
                    seen.add(rid)
                    rids.append(rid)
                continue
            if verdict == "seek":
                next_seek = _advancing(target, key)
            break  # "seek" or "done" both leave the inner walk
        seek_key = next_seek
    stats.stage = "IXSCAN"
    stats.index_name = plan.index_name
    return rids


def reference_find(
    collection: Collection,
    query: Mapping[str, Any],
    hint: Optional[str] = None,
    max_geo_ranges: Optional[int] = None,
) -> FindResult:
    """:meth:`Collection.find_with_stats` through the reference layers."""
    # The oracle reads the collection's storage directly: going through
    # a production read method would put the code under test inside it.
    records = collection._records

    def matches(document: Mapping[str, Any]) -> bool:
        return reference_matches(query, document)

    plan = plan_query(
        analyze_query(query),
        list(collection._indexes.values()),
        collection_size=len(records),
        hint=hint,
        max_geo_ranges=max_geo_ranges,
    )
    stats = ExecutionStats()
    if plan.kind == "COLLSCAN":
        stats.stage = plan.kind
        fetched = list(records.values())
    else:
        rids = reference_index_scan(plan, stats)
        fetched = [records[rid] for rid in rids if rid in records]
    stats.docs_examined = len(fetched)
    documents = [deep_copy_document(doc) for doc in fetched if matches(doc)]
    stats.n_returned = len(documents)
    return FindResult(documents, stats, plan)


def reference_cluster_find(
    cluster: ShardedCluster,
    collection: str,
    query: Mapping[str, Any],
    hint: Optional[str] = None,
    max_geo_ranges: Optional[int] = None,
) -> ClusterFindResult:
    """:meth:`ShardedCluster.find` through the reference layers."""
    targeting = reference_target_chunks(
        cluster.catalog.get(collection), analyze_query(query)
    )
    stats = ClusterQueryStats(
        targeted_shards=list(targeting.shard_ids),
        broadcast=targeting.broadcast,
    )
    documents: List[dict] = []
    for shard_id in targeting.shard_ids:
        shard_collection = cluster.shards[shard_id].collection(collection)
        result = reference_find(shard_collection, query, hint, max_geo_ranges)
        stats.per_shard[shard_id] = result.stats
        documents.extend(result.documents)
    stats.execution_time_ms = cluster.cost_model.query_time_ms(stats.per_shard)
    return ClusterFindResult(documents, stats)
