"""Tests for query → shard targeting, incl. the lex-range/box check."""

import datetime as dt
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.catalog import CollectionMetadata
from repro.cluster.chunk import Chunk, ShardKeyPattern
from repro.cluster.router import (
    LexBoxChecker,
    _target_from_intervals,
    lex_range_intersects_box,
    shard_key_intervals,
    target_chunks,
)
from repro.docstore import bson
from repro.docstore.index import SCAN_BOTTOM, SCAN_TOP, hashed_value
from repro.docstore.planner import Interval, analyze_query
from repro.reference import reference_target_chunks

UTC = dt.timezone.utc
T0 = dt.datetime(2018, 7, 1, tzinfo=UTC)


def iv(lo, hi):
    return Interval(bson.sort_key(lo), bson.sort_key(hi))


def key1(v):
    return (bson.sort_key(v),)


def key2(a, b):
    return (bson.sort_key(a), bson.sort_key(b))


class TestLexIntersect1D:
    def test_inside(self):
        assert lex_range_intersects_box([[iv(5, 7)]], key1(0), key1(10))

    def test_disjoint_below(self):
        assert not lex_range_intersects_box([[iv(5, 7)]], key1(8), key1(10))

    def test_disjoint_above(self):
        assert not lex_range_intersects_box([[iv(5, 7)]], key1(0), key1(5))

    def test_touching_lower_bound_inclusive(self):
        # Chunk [5, 10): value 5 is inside.
        assert lex_range_intersects_box([[iv(5, 5)]], key1(5), key1(10))

    def test_touching_upper_bound_exclusive(self):
        # Chunk [0, 5): value 5 is NOT inside.
        assert not lex_range_intersects_box([[iv(5, 5)]], key1(0), key1(5))

    def test_multiple_intervals(self):
        box = [[iv(1, 2), iv(8, 9)]]
        assert lex_range_intersects_box(box, key1(7), key1(10))
        assert not lex_range_intersects_box(box, key1(3), key1(7))


class TestLexIntersect2D:
    def test_interior_first_field_frees_second(self):
        # Chunk [(5, T0), (7, T0)): any key with first field 6 is inside
        # regardless of the second.
        lo = key2(5, T0)
        hi = key2(7, T0)
        box = [[iv(6, 6)], [iv(T0 + dt.timedelta(days=50), T0 + dt.timedelta(days=60))]]
        assert lex_range_intersects_box(box, lo, hi)

    def test_boundary_first_field_consults_second(self):
        # Chunk [(5, T0+10d), (6, MINKEY)): first field pinned to 5, so
        # the date bound matters.
        lo = key2(5, T0 + dt.timedelta(days=10))
        hi = (bson.sort_key(6), bson.sort_key(bson.MINKEY))
        inside = [[iv(5, 5)], [iv(T0 + dt.timedelta(days=20), T0 + dt.timedelta(days=30))]]
        outside = [[iv(5, 5)], [iv(T0, T0 + dt.timedelta(days=5))]]
        assert lex_range_intersects_box(inside, lo, hi)
        assert not lex_range_intersects_box(outside, lo, hi)

    def test_exhaustive_against_oracle(self):
        # Small discrete universe: keys (a, b) with a, b in 0..3.
        # Compare the checker against brute-force enumeration.
        universe = [key2(a, b) for a in range(4) for b in range(4)]
        bounds = [key2(a, b) for a in range(4) for b in range(4)]
        intervals_choices = [
            [[iv(1, 2)], [iv(0, 3)]],
            [[iv(0, 0)], [iv(2, 3)]],
            [[iv(2, 3), iv(0, 0)], [iv(1, 1)]],
            [[iv(0, 3)], [iv(0, 0)]],
        ]
        for lo, hi in itertools.combinations(bounds, 2):
            for intervals in intervals_choices:
                truth = any(
                    lo <= k < hi
                    and any(
                        i.lo <= k[0] <= i.hi for i in intervals[0]
                    )
                    and any(i.lo <= k[1] <= i.hi for i in intervals[1])
                    for k in universe
                )
                got = lex_range_intersects_box(intervals, lo, hi)
                # The checker is exact-or-conservative: it may say True
                # for an empty discrete gap, never False for a hit.
                if truth:
                    assert got, (lo, hi, intervals)


def build_metadata():
    pattern = ShardKeyPattern.from_spec([("h", 1), ("date", 1)])
    meta = CollectionMetadata(
        name="t", pattern=pattern, strategy="range", chunk_max_bytes=1024
    )
    boundaries = [
        (bson.sort_key(h), bson.sort_key(bson.MINKEY)) for h in (10, 20, 30)
    ]
    edges = [pattern.global_min()] + boundaries + [pattern.global_max()]
    for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
        meta.chunks.append(
            Chunk(min_key=lo, max_key=hi, shard_id="shard%02d" % i)
        )
    return meta


class TestShardKeyIntervals:
    def test_range_on_first_field(self):
        meta = build_metadata()
        shape = analyze_query({"h": {"$gte": 5, "$lte": 15}})
        intervals = shard_key_intervals(meta.pattern, shape)
        assert intervals is not None
        assert len(intervals) == 2
        assert intervals[1][0].is_full  # date unconstrained → full

    def test_unconstrained_first_field_broadcasts(self):
        meta = build_metadata()
        shape = analyze_query({"date": {"$gte": T0}})
        assert shard_key_intervals(meta.pattern, shape) is None

    def test_or_intervals_carried(self):
        meta = build_metadata()
        shape = analyze_query(
            {"$or": [{"h": {"$gte": 1, "$lte": 2}}, {"h": {"$gte": 25, "$lte": 26}}]}
        )
        intervals = shard_key_intervals(meta.pattern, shape)
        assert len(intervals[0]) == 2

    def test_hashed_eq_targetable(self):
        pattern = ShardKeyPattern.from_spec([("v", "hashed")])
        shape = analyze_query({"v": 7})
        intervals = shard_key_intervals(pattern, shape)
        assert intervals is not None
        assert intervals[0][0].is_point

    def test_hashed_range_broadcasts(self):
        pattern = ShardKeyPattern.from_spec([("v", "hashed")])
        shape = analyze_query({"v": {"$gte": 1, "$lte": 5}})
        assert shard_key_intervals(pattern, shape) is None


class TestTargetChunks:
    def test_targeted(self):
        meta = build_metadata()
        shape = analyze_query({"h": {"$gte": 12, "$lte": 13}})
        t = target_chunks(meta, shape)
        assert not t.broadcast
        assert t.shard_ids == ["shard01"]

    def test_spanning_ranges(self):
        meta = build_metadata()
        shape = analyze_query({"h": {"$gte": 5, "$lte": 25}})
        t = target_chunks(meta, shape)
        assert t.shard_ids == ["shard00", "shard01", "shard02"]

    def test_broadcast(self):
        meta = build_metadata()
        shape = analyze_query({"other": 1})
        t = target_chunks(meta, shape)
        assert t.broadcast
        assert len(t.chunks) == 4

    def test_or_targets_union(self):
        meta = build_metadata()
        shape = analyze_query(
            {"$or": [{"h": {"$gte": 1, "$lte": 2}}, {"h": {"$gte": 35, "$lte": 36}}]}
        )
        t = target_chunks(meta, shape)
        assert t.shard_ids == ["shard00", "shard03"]


# -- bisected routing ≡ the every-chunk sweep ---------------------------------

SHARDS = ["s0", "s1", "s2", "s3"]
#: Split values: a small integer domain so runs of chunks share a first
#: field (a split inside one Hilbert cell), plus the MinKey/MaxKey ends.
SPLIT_VALUES = [bson.MINKEY] + list(range(0, 13, 2)) + [bson.MAXKEY]
#: Interval ends: on, below, above and between the split values.
BOUND_VALUES = [bson.MINKEY, -1, 0, 1, 2, 2.5, 3, 6, 7, 10, 12, 13, bson.MAXKEY]


def map_from_splits(pattern, splits, owners):
    """A contiguous chunk map of ``pattern`` cut at ``splits``."""
    meta = CollectionMetadata(
        name="t", pattern=pattern, strategy="range", chunk_max_bytes=1024
    )
    lo, top = pattern.global_min(), pattern.global_max()
    cuts = sorted({s for s in splits if lo < s < top})
    edges = [lo] + cuts + [top]
    for i, (a, b) in enumerate(zip(edges, edges[1:])):
        meta.chunks.append(Chunk(min_key=a, max_key=b, shard_id=owners[i % len(owners)]))
    meta.validate()
    return meta


@st.composite
def chunk_maps(draw):
    kind = draw(st.sampled_from(["range1", "range2", "hashed"]))
    owners = draw(st.lists(st.sampled_from(SHARDS), min_size=1, max_size=6))
    if kind == "range1":
        pattern = ShardKeyPattern.from_spec([("h", 1)])
        values = draw(st.lists(st.sampled_from(SPLIT_VALUES), max_size=8))
        splits = [(bson.sort_key(v),) for v in values]
    elif kind == "range2":
        pattern = ShardKeyPattern.from_spec([("h", 1), ("d", 1)])
        pairs = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(SPLIT_VALUES),
                    st.sampled_from([bson.MINKEY, 0, 1, 3, 5, bson.MAXKEY]),
                ),
                max_size=12,
            )
        )
        splits = [(bson.sort_key(h), bson.sort_key(d)) for h, d in pairs]
    else:
        pattern = ShardKeyPattern.from_spec([("v", "hashed")])
        values = draw(st.lists(st.integers(0, 30), max_size=8))
        splits = [(bson.sort_key(hashed_value(v)),) for v in values]
    return kind, map_from_splits(pattern, splits, owners)


def canon_bound():
    return st.one_of(
        st.sampled_from(BOUND_VALUES).map(bson.sort_key),
        st.sampled_from([SCAN_BOTTOM, SCAN_TOP]),
    )


def intervals(ends):
    """Closed and exclusive ranges, points and full intervals."""
    ranges = st.builds(
        Interval, ends, ends, st.booleans(), st.booleans()
    )
    points = ends.map(lambda c: Interval(c, c))
    return st.one_of(ranges, points, st.just(Interval.full()))


def merged(ivs):
    """Plain ∪ ``$or`` intervals as ``shard_key_intervals`` merges them:
    sorted by ``(lo, hi)``, so the highs need not ascend."""
    return sorted(ivs, key=lambda iv: (iv.lo, iv.hi))


@st.composite
def boxes(draw, kind, pattern):
    if kind == "hashed":
        ends = st.integers(0, 30).map(lambda v: bson.sort_key(hashed_value(v)))
        first = draw(st.lists(ends.map(lambda c: Interval(c, c)), min_size=1, max_size=4))
    else:
        first = draw(st.lists(intervals(canon_bound()), min_size=1, max_size=5))
    box = [merged(first)]
    for _ in pattern.fields[1:]:
        box.append(merged(draw(st.lists(intervals(canon_bound()), min_size=1, max_size=3))))
    return box


def sweep(meta, box):
    checker = LexBoxChecker(box)
    return [c for c in meta.chunks if checker.intersects(c.min_key, c.max_key)]


def assert_same_targeting(got, expected):
    assert [id(c) for c in got.chunks] == [id(c) for c in expected.chunks]
    assert got.shard_ids == expected.shard_ids
    assert got.broadcast is expected.broadcast


class TestBisectedRouting:
    """Production bisects the chunk list; the oracle tests every chunk."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_interval_boxes_match_sweep(self, data):
        kind, meta = data.draw(chunk_maps())
        box = data.draw(boxes(kind, meta.pattern))
        got = _target_from_intervals(meta, box)
        expected = sweep(meta, box)
        assert [id(c) for c in got.chunks] == [id(c) for c in expected]
        assert got.shard_ids == sorted({c.shard_id for c in expected})
        assert got.broadcast is False

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_queries_match_reference(self, data):
        kind, meta = data.draw(chunk_maps())
        path = meta.pattern.paths[0]
        value = st.sampled_from(BOUND_VALUES[1:-1])
        if kind == "hashed":
            clause = st.one_of(
                st.integers(0, 30),
                st.fixed_dictionaries({"$in": st.lists(st.integers(0, 30), min_size=1, max_size=4)}),
                st.just({"$gte": 3}),  # a hashed range broadcasts
            )
        else:
            clause = st.one_of(
                value,
                st.fixed_dictionaries({"$in": st.lists(value, min_size=1, max_size=4)}),
                st.fixed_dictionaries(
                    {},
                    optional={
                        "$gte": value, "$gt": value, "$lte": value, "$lt": value
                    },
                ),
            )
        query = {}
        if data.draw(st.booleans()):
            query[path] = data.draw(clause)
        if data.draw(st.booleans()):
            branches = data.draw(st.lists(clause, min_size=1, max_size=3))
            query["$or"] = [{path: b} for b in branches]
        if len(meta.pattern) == 2 and data.draw(st.booleans()):
            query["d"] = {"$gte": data.draw(value)}
        shape = analyze_query(query)
        assert_same_targeting(
            target_chunks(meta, shape), reference_target_chunks(meta, shape)
        )

    def test_interval_starting_at_a_chunk_minimum(self):
        # Chunks [MinKey,10) [10,20) [20,30) [30,MaxKey): the run starts
        # at [10,20), whose max equals lo, and the box check drops it.
        meta = build_metadata_1d()
        shape = analyze_query({"h": {"$gte": 20, "$lte": 25}})
        got = target_chunks(meta, shape)
        assert got.chunks == [meta.chunks[2]]
        assert_same_targeting(got, reference_target_chunks(meta, shape))

    def test_interval_inside_one_chunk(self):
        meta = build_metadata_1d()
        shape = analyze_query({"h": {"$gte": 12, "$lte": 13}})
        got = target_chunks(meta, shape)
        assert got.chunks == [meta.chunks[1]]
        assert_same_targeting(got, reference_target_chunks(meta, shape))

    def test_interval_inside_a_run_sharing_the_first_field(self):
        # Chunks split inside one first-field value (5, ·): the run
        # starts at the chunk below (5, 0), and a window on the second
        # field keeps only the chunk of the run that holds it.
        pattern = ShardKeyPattern.from_spec([("h", 1), ("d", 1)])
        splits = [key2(5, 0), key2(5, 3), key2(5, 7), key2(8, 0)]
        meta = map_from_splits(pattern, splits, SHARDS)
        shape = analyze_query({"h": 5, "d": {"$gte": 4, "$lte": 6}})
        got = target_chunks(meta, shape)
        assert got.chunks == [meta.chunks[2]]
        assert_same_targeting(got, reference_target_chunks(meta, shape))


def build_metadata_1d():
    pattern = ShardKeyPattern.from_spec([("h", 1)])
    return map_from_splits(pattern, [key1(h) for h in (10, 20, 30)], SHARDS)
