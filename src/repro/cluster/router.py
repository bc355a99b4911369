"""Query routing: shard-key bounds → targeted shards (mongos logic).

The router decides, per query, which shards must participate.  It
extracts intervals on the shard-key fields from the query (reusing the
planner's predicate analysis — the same machinery MongoDB shares
between planning and targeting), then keeps every chunk whose
lexicographic ``[min, max)`` range can contain a key inside the
intervals' cartesian box.  Like mongos's range lookup on its sorted
chunk map, it tests only the chunks that bisection on the first field
finds (:meth:`CollectionMetadata.chunks_spanning`), never the whole
map.  Queries that do not constrain the first shard-key field become
*broadcast* operations, the behaviour Section 4.1.2 highlights as the
baseline's weakness.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Tuple

from repro.cache import StampedLRUCache
from repro.cluster.catalog import CollectionMetadata
from repro.cluster.chunk import Chunk, KeyBound, ShardKeyPattern
from repro.docstore.index import hashed_value
from repro.docstore.planner import Interval, QueryShape

__all__ = [
    "shard_key_intervals",
    "lex_range_intersects_box",
    "LexBoxChecker",
    "target_chunks",
    "target_chunks_cached",
    "targeting_cache_key",
    "TargetingResult",
]


class TargetingResult:
    """Which chunks/shards a query must touch, and why."""

    def __init__(
        self,
        chunks: List[Chunk],
        shard_ids: List[str],
        broadcast: bool,
        intervals: Optional[List[List[Interval]]],
    ) -> None:
        self.chunks = chunks
        self.shard_ids = shard_ids
        self.broadcast = broadcast
        self.intervals = intervals


def shard_key_intervals(
    pattern: ShardKeyPattern, shape: QueryShape
) -> Optional[List[List[Interval]]]:
    """Per-field interval lists on the shard key, or None → broadcast.

    The first field must be constrained for targeted routing; trailing
    unconstrained fields widen to the full interval (MongoDB pads
    bounds with MinKey/MaxKey the same way).
    """
    out: List[List[Interval]] = []
    for position, (path, kind) in enumerate(pattern.fields):
        predicate = shape.predicate(path)
        intervals: List[Interval] = []
        if predicate is not None and predicate.is_constraining():
            if kind == "hashed":
                for v in predicate.eq_values:
                    intervals.append(Interval.point(hashed_value(v)))
                for v in predicate.in_values:
                    intervals.append(Interval.point(hashed_value(v)))
            else:
                intervals = predicate.plain_intervals()
                if predicate.or_intervals:
                    merged = intervals + list(predicate.or_intervals)
                    intervals = sorted(merged, key=lambda iv: (iv.lo, iv.hi))
        if not intervals:
            if position == 0:
                return None
            intervals = [Interval.full()]
        out.append(intervals)
    return out


class LexBoxChecker:
    """Precompiled lexicographic-range vs interval-box intersection.

    Does the lexicographic range ``[lo, hi)`` contain any key whose
    fields lie in the given per-field intervals?  Exact for dense
    domains; conservatively inclusive at discrete boundaries
    (MongoDB's targeting is likewise conservative — a shard may be
    contacted and return nothing).

    Interval lists are sorted at construction, so per-chunk checks run
    with bisection even when a fragmented covering contributes
    thousands of intervals.
    """

    def __init__(self, intervals: Sequence[Sequence[Interval]]) -> None:
        self._intervals = [
            sorted(ivs, key=lambda iv: (iv.lo, iv.hi)) for ivs in intervals
        ]
        self._lows = [[iv.lo for iv in ivs] for ivs in self._intervals]
        self._highs = [[iv.hi for iv in ivs] for ivs in self._intervals]

    def _candidates(self, depth: int, lo_d, hi_d):
        ivs = self._intervals[depth]
        start = 0
        if lo_d is not None:
            # Skip intervals entirely below lo_d (iv.hi < lo_d).  The
            # highs list is ascending when intervals are disjoint; for
            # overlapping inputs this prune is merely conservative.
            start = bisect.bisect_left(self._highs[depth], lo_d)
        end = len(ivs)
        if hi_d is not None:
            end = bisect.bisect_right(self._lows[depth], hi_d)
        return ivs[start:end]

    def intersects(self, lo: KeyBound, hi: KeyBound) -> bool:
        """Whether ``[lo, hi)`` contains any key inside the box."""

        def recurse(depth: int, lo_active: bool, hi_active: bool) -> bool:
            if depth == len(self._intervals):
                # Every field pinned to the bound values: the key
                # equals `lo` (allowed) and/or `hi` (excluded).
                return not hi_active
            lo_d = lo[depth] if lo_active else None
            hi_d = hi[depth] if hi_active else None
            for iv in self._candidates(depth, lo_d, hi_d):
                a = iv.lo
                b = iv.hi
                if lo_active and lo_d > a:
                    a = lo_d
                if hi_active and hi_d < b:
                    b = hi_d
                if a > b:
                    continue
                # Case 1: a value strictly between the active bounds
                # frees the deeper fields entirely.
                strictly_above_lo = (not lo_active) or b > lo_d
                strictly_below_hi = (not hi_active) or a < hi_d
                if strictly_above_lo and strictly_below_hi:
                    if not (lo_active and hi_active and lo_d == hi_d):
                        return True
                # Case 2: walk the lower boundary (v == lo_d).
                if lo_active and a <= lo_d <= b:
                    next_hi_active = hi_active and lo_d == hi_d
                    if recurse(depth + 1, True, next_hi_active):
                        return True
                # Case 3: walk the upper boundary (v == hi_d).
                if hi_active and a <= hi_d <= b and not (
                    lo_active and lo_d == hi_d
                ):
                    next_lo_active = lo_active and lo_d == hi_d
                    if recurse(depth + 1, next_lo_active, True):
                        return True
            return False

        return recurse(0, True, True)


def lex_range_intersects_box(
    intervals: Sequence[Sequence[Interval]],
    lo: KeyBound,
    hi: KeyBound,
) -> bool:
    """One-shot convenience wrapper around :class:`LexBoxChecker`."""
    return LexBoxChecker(intervals).intersects(lo, hi)


def target_chunks(
    metadata: CollectionMetadata, shape: QueryShape
) -> TargetingResult:
    """Chunks (and shards) a query must visit."""
    return _target_from_intervals(
        metadata, shard_key_intervals(metadata.pattern, shape)
    )


def _target_from_intervals(
    metadata: CollectionMetadata,
    intervals: Optional[List[List[Interval]]],
) -> TargetingResult:
    if intervals is None:
        shard_ids = metadata.shards_used()
        return TargetingResult(
            chunks=list(metadata.chunks),
            shard_ids=shard_ids,
            broadcast=True,
            intervals=None,
        )
    checker = LexBoxChecker(intervals)
    # Only a chunk whose first-field span meets a first-field interval
    # can intersect the box; bisection finds those runs, no sweep.
    spans = zip(checker._lows[0], checker._highs[0])
    chunks = [
        c
        for c in metadata.chunks_spanning(spans)
        if checker.intersects(c.min_key, c.max_key)
    ]
    shard_ids = sorted({c.shard_id for c in chunks})
    return TargetingResult(
        chunks=chunks, shard_ids=shard_ids, broadcast=False, intervals=intervals
    )


def targeting_cache_key(
    collection: str,
    intervals: Optional[List[List[Interval]]],
) -> Optional[Tuple]:
    """Hashable identity of a routing decision, or None if uncacheable.

    The key binds the collection and the shard-key interval box the
    query constrains; the ``metadata_version`` the decision was derived
    under is the entry's *stamp*, not part of the key, so a split,
    migration, DDL or zone change makes the next lookup a stale miss
    whose refill replaces the entry in place.  Canonical bounds are
    tuples of scalars and therefore hashable; exotic values that are
    not simply make the decision uncacheable.
    """
    if intervals is None:
        parts: Optional[Tuple] = None
    else:
        parts = tuple(
            tuple(
                (iv.lo, iv.hi, iv.lo_inclusive, iv.hi_inclusive)
                for iv in ivs
            )
            for ivs in intervals
        )
    key = (collection, parts)
    try:
        hash(key)
    except TypeError:
        return None
    return key


def target_chunks_cached(
    metadata: CollectionMetadata,
    shape: QueryShape,
    cache: StampedLRUCache,
    metadata_version: int,
) -> TargetingResult:
    """:func:`target_chunks` memoized in ``cache``, stamped with the version.

    ``metadata_version`` must be read before ``metadata.chunks`` is:
    a split sliding in between then stamps the stale decision with the
    old version, and no later lookup accepts it.  Interval extraction
    always runs (it is cheap and yields the key); the chunk bisection and
    intersection tests are what a hit skips.  Cached
    :class:`TargetingResult` objects are shared between callers and
    must be treated as read-only.
    """
    intervals = shard_key_intervals(metadata.pattern, shape)
    key = targeting_cache_key(metadata.name, intervals)
    if key is not None:
        cached = cache.get(key, stamp=metadata_version)
        if cached is not None:
            return cached
    result = _target_from_intervals(metadata, intervals)
    if key is not None:
        cache.put(key, result, stamp=metadata_version)
    return result
