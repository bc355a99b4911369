"""Tests for query analysis, index bounds, and plan selection."""

import datetime as dt

import pytest

from repro.docstore import bson
from repro.docstore.collection import Collection
from repro.docstore.index import Index, IndexDefinition, SCAN_BOTTOM, SCAN_TOP
from repro.docstore.planner import (
    CollScanPlan,
    IndexScanPlan,
    Interval,
    analyze_query,
    build_bounds_for_index,
    plan_query,
)
from repro.errors import PlanError, QueryError

UTC = dt.timezone.utc
T1 = dt.datetime(2018, 7, 1, tzinfo=UTC)
T2 = dt.datetime(2018, 8, 1, tzinfo=UTC)


class TestAnalyze:
    def test_eq_predicate(self):
        shape = analyze_query({"a": 5})
        assert shape.predicate("a").eq_values == [5]

    def test_range_predicates_tightened(self):
        shape = analyze_query({"a": {"$gte": 1, "$gt": 3, "$lte": 10}})
        p = shape.predicate("a")
        assert p.gt == 3 and not p.gt_inclusive
        assert p.lt == 10 and p.lt_inclusive

    def test_and_merging(self):
        shape = analyze_query({"$and": [{"a": {"$gte": 1}}, {"a": {"$lte": 9}}]})
        p = shape.predicate("a")
        assert p.gt == 1 and p.lt == 9

    def test_geo_predicate(self):
        shape = analyze_query(
            {"loc": {"$geoWithin": {"$box": [[0, 0], [1, 1]]}}}
        )
        assert shape.predicate("loc").geo_region is not None

    def test_single_path_or_folded(self):
        shape = analyze_query(
            {
                "$or": [
                    {"h": {"$gte": 1, "$lte": 5}},
                    {"h": {"$gte": 10, "$lte": 12}},
                    {"h": {"$in": [20, 30]}},
                ]
            }
        )
        p = shape.predicate("h")
        assert len(p.or_intervals) == 4
        assert not shape.opaque_or

    def test_multi_path_or_is_opaque(self):
        shape = analyze_query({"$or": [{"a": 1}, {"b": 2}]})
        assert shape.opaque_or
        assert shape.predicate("a") is None

    def test_or_with_unsupported_op_is_opaque(self):
        shape = analyze_query({"$or": [{"a": {"$ne": 1}}, {"a": 2}]})
        assert shape.opaque_or

    def test_unsupported_top_level_rejected(self):
        with pytest.raises(QueryError):
            analyze_query({"$text": {"$search": "x"}})

    def test_plain_intervals_merge_overlaps(self):
        shape = analyze_query({"a": {"$in": [1, 2, 3]}})
        intervals = shape.predicate("a").plain_intervals()
        # 1,2,3 are distinct points (not numerically adjacent in key
        # space), so three point intervals remain.
        assert len(intervals) == 3
        assert all(iv.is_point for iv in intervals)

    def test_eq_and_range_intersected(self):
        shape = analyze_query({"a": {"$eq": 5, "$gte": 1, "$lte": 10}})
        intervals = shape.predicate("a").plain_intervals()
        assert len(intervals) == 1
        assert intervals[0].is_point

    def test_eq_outside_range_drops_to_range(self):
        # Contradictory predicates: the planner keeps a safe interval
        # (the residual matcher returns nothing either way).
        shape = analyze_query({"a": {"$eq": 50, "$lte": 10}})
        intervals = shape.predicate("a").plain_intervals()
        assert len(intervals) == 1


class TestInterval:
    def test_full(self):
        iv = Interval.full()
        assert iv.is_full
        assert iv.width_fraction(None) == 1.0

    def test_point(self):
        iv = Interval.point(5)
        assert iv.is_point
        assert iv.width_fraction((0.0, 100.0)) < 0.01

    def test_width_fraction_with_stats(self):
        iv = Interval(bson.sort_key(10), bson.sort_key(20))
        assert iv.width_fraction((0.0, 100.0)) == pytest.approx(0.1)

    def test_width_fraction_clamps_to_domain(self):
        iv = Interval(bson.sort_key(-100), bson.sort_key(1000))
        assert iv.width_fraction((0.0, 100.0)) == 1.0

    def test_half_bounded_without_stats(self):
        iv = Interval(bson.sort_key(5), SCAN_TOP)
        assert 0 < iv.width_fraction(None) < 1


def _make_indexes(docs):
    compound = Index(
        IndexDefinition.from_spec(
            [("location", "2dsphere"), ("date", 1)], name="loc_date"
        )
    )
    date_idx = Index(IndexDefinition.from_spec([("date", 1)], name="date_1"))
    for rid, doc in enumerate(docs):
        compound.insert_document(rid, doc)
        date_idx.insert_document(rid, doc)
    return compound, date_idx


def _docs(n=200):
    import random

    rng = random.Random(3)
    out = []
    for i in range(n):
        out.append(
            {
                "location": {
                    "type": "Point",
                    "coordinates": [
                        rng.uniform(20.0, 28.0),
                        rng.uniform(35.0, 41.0),
                    ],
                },
                "date": T1 + dt.timedelta(minutes=rng.uniform(0, 60 * 24 * 90)),
                "v": i,
            }
        )
    return out


class TestBounds:
    def test_compound_bounds_geo_then_date(self):
        compound, _ = _make_indexes(_docs())
        shape = analyze_query(
            {
                "location": {"$geoWithin": {"$box": [[22, 36], [24, 38]]}},
                "date": {"$gte": T1, "$lte": T2},
            }
        )
        built = build_bounds_for_index(compound, shape)
        assert built is not None
        bounds, n_bounded, exact_paths = built
        assert n_bounded == 2
        assert len(bounds[0]) >= 1  # geohash covering ranges
        assert len(bounds[1]) == 1  # one date interval
        # The covering over-approximates the box; the closed date range
        # is enforced exactly by its interval.
        assert exact_paths == {"date"}

    def test_first_field_unconstrained_unusable(self):
        compound, _ = _make_indexes(_docs())
        shape = analyze_query({"date": {"$gte": T1}})
        assert build_bounds_for_index(compound, shape) is None

    def test_date_index_bounds(self):
        _, date_idx = _make_indexes(_docs())
        shape = analyze_query({"date": {"$gte": T1, "$lte": T2}})
        built = build_bounds_for_index(date_idx, shape)
        assert built is not None
        bounds, n_bounded, exact_paths = built
        assert n_bounded == 1
        assert exact_paths == {"date"}

    def test_or_intervals_fold_into_first_field(self):
        idx = Index(
            IndexDefinition.from_spec([("h", 1), ("date", 1)], name="h_date")
        )
        for rid in range(50):
            idx.insert_document(rid, {"h": rid, "date": T1})
        shape = analyze_query(
            {
                "$or": [
                    {"h": {"$gte": 1, "$lte": 5}},
                    {"h": {"$gte": 20, "$lte": 22}},
                ],
                "date": {"$gte": T1, "$lte": T2},
            }
        )
        built = build_bounds_for_index(idx, shape)
        assert built is not None
        bounds, n_bounded, exact_paths = built
        assert n_bounded == 2
        assert len(bounds[0]) == 2
        assert exact_paths == {"h", "date"}

    def test_or_union_keeps_an_inclusive_end_an_exclusive_one_shares(self):
        # (5, 8] ∪ [5, 8] is [5, 8], whichever clause comes first: the
        # bounds prove the path, so a lost 5 would leave the results.
        col = Collection("t")
        col.create_index([("a", 1)], name="a_1")
        col.insert_many([{"_id": i, "a": v} for i, v in enumerate([4, 5, 6, 9])])
        q = {"$or": [{"a": {"$gt": 5, "$lte": 8}}, {"a": {"$gte": 5, "$lte": 8}}]}
        result = col.find_with_stats(q, hint="a_1")
        assert [iv.lo_inclusive for iv in result.plan.bounds[0]] == [True]
        assert sorted(d["a"] for d in result.documents) == [5, 6]

    def test_geo_field_without_geo_predicate_unusable(self):
        compound, _ = _make_indexes(_docs())
        shape = analyze_query({"location": {"$eq": 5}, "date": {"$gte": T1}})
        assert build_bounds_for_index(compound, shape) is None


class TestPlanSelection:
    def test_picks_index_over_collscan(self):
        docs = _docs()
        compound, date_idx = _make_indexes(docs)
        shape = analyze_query({"date": {"$gte": T1, "$lte": T2}})
        plan = plan_query(shape, [compound, date_idx], len(docs))
        assert isinstance(plan, IndexScanPlan)
        assert plan.index_name == "date_1"

    def test_collscan_when_nothing_usable(self):
        docs = _docs()
        compound, date_idx = _make_indexes(docs)
        shape = analyze_query({"v": 5})
        plan = plan_query(shape, [compound, date_idx], len(docs))
        assert isinstance(plan, CollScanPlan)

    def test_hint_forces_index(self):
        docs = _docs()
        compound, date_idx = _make_indexes(docs)
        shape = analyze_query(
            {
                "location": {"$geoWithin": {"$box": [[22, 36], [24, 38]]}},
                "date": {"$gte": T1, "$lte": T2},
            }
        )
        plan = plan_query(shape, [compound, date_idx], len(docs), hint="loc_date")
        assert plan.index_name == "loc_date"

    def test_bad_hint_raises(self):
        docs = _docs()
        compound, date_idx = _make_indexes(docs)
        shape = analyze_query({"v": 5})
        with pytest.raises(PlanError):
            plan_query(shape, [compound, date_idx], len(docs), hint="loc_date")

    def test_narrow_date_prefers_date_index(self):
        # A one-hour window over 90 days: the date index should win
        # against a large geo covering (the Table 7 phenomenon).
        docs = _docs(500)
        compound, date_idx = _make_indexes(docs)
        shape = analyze_query(
            {
                "location": {"$geoWithin": {"$box": [[20, 35], [28, 41]]}},
                "date": {"$gte": T1, "$lte": T1 + dt.timedelta(hours=1)},
            }
        )
        plan = plan_query(shape, [compound, date_idx], len(docs))
        assert isinstance(plan, IndexScanPlan)
        assert plan.index_name == "date_1"

    def test_tiny_box_prefers_compound(self):
        # A tiny box over a huge time range: the compound wins.
        docs = _docs(500)
        compound, date_idx = _make_indexes(docs)
        shape = analyze_query(
            {
                "location": {
                    "$geoWithin": {"$box": [[23.70, 37.90], [23.71, 37.91]]}
                },
                "date": {"$gte": T1, "$lte": T1 + dt.timedelta(days=90)},
            }
        )
        plan = plan_query(shape, [compound, date_idx], len(docs))
        assert isinstance(plan, IndexScanPlan)
        assert plan.index_name == "loc_date"

    def test_describe_shapes(self):
        docs = _docs()
        compound, date_idx = _make_indexes(docs)
        shape = analyze_query({"date": {"$gte": T1, "$lte": T2}})
        plan = plan_query(shape, [compound, date_idx], len(docs))
        desc = plan.describe()
        assert desc["stage"] == "IXSCAN"
        assert "estimatedCost" in desc
        assert CollScanPlan(10.0).describe()["stage"] == "COLLSCAN"
