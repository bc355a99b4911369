"""Differential testing: the production read path vs ``repro.reference``.

Hundreds of randomized spatio-temporal queries run twice over the same
deployed cluster — once through ``ShardedCluster.find`` (compiled
matchers, shared hinted bounds, bisected chunk routing, one persistent
cursor) and once through ``reference_cluster_find`` (the
paper-faithful interpreter, every chunk tested, one descent per seek).  Every
query must produce byte-identical documents AND identical execution
counters (``keysExamined``, ``docsExamined``, ``nReturned``, per
shard): the production path is a pure performance transform with no
observable semantic surface.

:class:`TestResidualFilter` widens that to three arms — reference,
library, and the library handed the one walk's pre-parsed shape and
matcher — over the query forms the residual FETCH filter's exactness
rule turns on: the compiled arms drop the predicates exact index
bounds already prove, the reference never does.  Every query of every
test here is also checked against the shape and matcher oracles
(:func:`assert_one_walk_matches_reference`).
"""

import datetime as _dt
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import ClusterTopology
from repro.core.approaches import COLLECTION, deploy_approach, make_approach
from repro.datagen import FleetConfig, FleetGenerator
from repro.datagen.datasets import GREECE_BBOX
from repro.docstore.collection import Collection
from repro.docstore.executor import ExecutionStats, run_index_scan
from repro.docstore.matcher import parse_query
from repro.docstore.planner import plan_query
from repro.errors import PlanError
from repro.geo.geometry import BoundingBox
from repro.reference import reference_cluster_find, reference_find
from repro.workloads.queries import QUERY_WINDOWS, SpatioTemporalQuery
from tests.integration.test_plan_cache_differential import (
    assert_one_walk_matches_reference,
)

N_DOCS = 1_200
TOPOLOGY = ClusterTopology(n_shards=6)

_UTC = _dt.timezone.utc
_TIME_LO = _dt.datetime(2018, 7, 1, tzinfo=_UTC)
_TIME_SPAN_S = int(
    (_dt.datetime(2018, 10, 1, tzinfo=_UTC) - _TIME_LO).total_seconds()
)


def _random_queries(rng: random.Random, n: int):
    """Randomized rectangles + windows over (and around) the data region.

    Mixes tiny through country-sized boxes and minute through
    multi-month windows; some combinations match nothing, which is as
    important to cover as dense hits.
    """
    queries = []
    for i in range(n):
        width = 10.0 ** rng.uniform(-2.0, 0.8)  # 0.01 .. ~6 degrees
        height = 10.0 ** rng.uniform(-2.0, 0.6)
        min_lon = rng.uniform(GREECE_BBOX.min_lon - 1.0, GREECE_BBOX.max_lon)
        min_lat = rng.uniform(GREECE_BBOX.min_lat - 1.0, GREECE_BBOX.max_lat)
        bbox = BoundingBox(
            min_lon,
            min_lat,
            min(min_lon + width, 180.0),
            min(min_lat + height, 90.0),
        )
        start_s = rng.randrange(0, _TIME_SPAN_S)
        duration_s = int(60 * 10.0 ** rng.uniform(0.0, 3.2))  # 1min..~4mo
        t_from = _TIME_LO + _dt.timedelta(seconds=start_s)
        queries.append(
            SpatioTemporalQuery(
                bbox=bbox,
                time_from=t_from,
                time_to=t_from + _dt.timedelta(seconds=duration_s),
                label="rand-%d" % i,
            )
        )
    # Degenerate shapes the random sweep may miss: a point-sized box
    # and an instant window.
    queries.append(
        SpatioTemporalQuery(
            bbox=BoundingBox(23.7, 38.0, 23.7, 38.0),
            time_from=QUERY_WINDOWS[0][1],
            time_to=QUERY_WINDOWS[0][1],
            label="degenerate",
        )
    )
    return queries


@pytest.fixture(scope="module")
def docs():
    return FleetGenerator(FleetConfig(n_vehicles=30)).generate_list(N_DOCS)


@pytest.fixture(
    scope="module", params=["hil", "bslST", "bslTS"], ids=str
)
def deployment(request, docs):
    return deploy_approach(
        make_approach(request.param),
        docs,
        topology=TOPOLOGY,
        chunk_max_bytes=24 * 1024,
    )


def _assert_identical(deployment, query):
    approach = deployment.approach
    rendered, _ = approach.render_query(query)
    if approach.name == "hil":
        # The rendering carries exactly the decomposition's ranges.
        ranges, _ = query.hilbert_ranges(
            approach.encoder, approach.max_query_ranges
        )
        rendering = query.to_hilbert_query(
            approach.encoder, approach.max_query_ranges
        )
        assert rendering.range_set == ranges, query.label
        assert rendering.query == rendered, query.label
    assert_one_walk_matches_reference(rendered)
    fast = deployment.cluster.find(COLLECTION, rendered)
    slow = reference_cluster_find(deployment.cluster, COLLECTION, rendered)
    assert fast.documents == slow.documents, query.label
    assert fast.stats.as_dict() == slow.stats.as_dict(), query.label


class TestCompiledVsInterpreter:
    def test_randomized_queries_identical(self, deployment):
        # ~200 randomized queries across the three approaches (the
        # fixture parametrizes); seeds differ per approach so each
        # deployment sees its own rectangles.
        rng = random.Random(hash(deployment.approach.name) % 10_000)
        for query in _random_queries(rng, 66):
            _assert_identical(deployment, query)
        # The sweep must also exercise dense hits, not only sparse or
        # empty rectangles: the whole region over the whole timespan
        # matches every record, and must stay identical too.
        everything = SpatioTemporalQuery(
            bbox=GREECE_BBOX,
            time_from=_TIME_LO,
            time_to=_TIME_LO + _dt.timedelta(seconds=_TIME_SPAN_S),
            label="everything",
        )
        _assert_identical(deployment, everything)
        rendered, _ = deployment.approach.render_query(everything)
        result = deployment.cluster.find(COLLECTION, rendered)
        assert len(result.documents) > N_DOCS // 2


def _three_way(cluster, query, hint=None, label=""):
    """Reference vs library vs pre-parsed on one raw query document.

    Returns the reference's result, or None where the hint is unusable.
    """
    assert_one_walk_matches_reference(query)
    try:
        slow = reference_cluster_find(cluster, COLLECTION, query, hint=hint)
    except PlanError:
        with pytest.raises(PlanError):
            cluster.find(COLLECTION, query, hint=hint)
        return None
    shape, matcher = parse_query(query)
    arms = [
        cluster.find(COLLECTION, query, hint=hint),
        cluster.find(
            COLLECTION, query, hint=hint, shape=shape, matcher=matcher
        ),
    ]
    for arm in arms:
        assert arm.documents == slow.documents, (label, query)
        assert arm.stats.as_dict() == slow.stats.as_dict(), (label, query)
    return slow


def _edge_queries(rng: random.Random, hilberts):
    """Seeded ``(label, query)`` pairs, one family per exactness case."""

    def when():
        return _TIME_LO + _dt.timedelta(
            seconds=rng.randrange(0, _TIME_SPAN_S)
        )

    def window():
        a, b = sorted((when(), when()))
        return {"$gte": a, "$lte": b}

    def h_ranges(n):
        out = []
        for _ in range(n):
            lo = rng.choice(hilberts)
            out.append(
                {"hilbertIndex": {"$gte": lo, "$lte": lo + rng.randrange(1 << 18)}}
            )
        return out

    box = {
        "$geoWithin": {
            "$box": [
                [GREECE_BBOX.min_lon, GREECE_BBOX.min_lat],
                [GREECE_BBOX.max_lon - rng.random(), GREECE_BBOX.max_lat],
            ]
        }
    }
    nan = float("nan")
    h = rng.choice(hilberts)
    w = window()
    outside = w["$lte"] + _dt.timedelta(days=1)
    yield "closed-window", {"date": window(), "location": box}
    yield "hil-shape", {"$or": h_ranges(6), "date": window(), "location": box}
    # One-sided ranges run to a scan sentinel and admit other BSON types
    # (the string/null dates seeded below) that the operator rejects.
    yield "one-sided-gte", {"date": {"$gte": when()}}
    yield "one-sided-lte", {"date": {"$lte": when()}}
    yield "one-sided-lt-hil", {"hilbertIndex": {"$lt": h}, "date": window()}
    yield "one-sided-gt-hil", {"hilbertIndex": {"$gt": h}}
    yield "one-sided-string", {"date": {"$gte": "2018"}}
    yield "cross-type-range", {"date": {"$gte": "2018", "$lte": when()}}
    # $eq + range, point outside: the bounds keep the whole range.
    yield "eq-outside-range", {"date": {**w, "$eq": outside}}
    yield "eq-outside-range-and", {"$and": [{"date": w}, {"date": outside}]}
    yield "eq-inside-range-and", {
        "$and": [{"date": w}, {"date": {"$in": [w["$gte"], outside]}}]
    }
    yield "two-ranges-and", {"$and": [{"date": window()}, {"date": window()}]}
    yield "two-ranges-cross-type", {
        "$and": [{"date": window()}, {"date": {"$gte": "2018", "$lte": "2019"}}]
    }
    yield "two-points-and", {"$and": [{"date": w["$gte"]}, {"date": w["$lte"]}]}
    yield "two-ins-and", {
        "$and": [
            {"hilbertIndex": {"$in": [h, h + 1]}},
            {"hilbertIndex": {"$in": [h + 1, h + 2]}},
        ]
    }
    # Two single-path $or s and $or + plain range: both are unioned
    # bounds.
    yield "two-ors", {
        "$or": h_ranges(5),
        "$and": [{"$or": h_ranges(5)}],
        "date": window(),
    }
    yield "or-plus-range", {
        "$or": h_ranges(4),
        "hilbertIndex": {"$gte": h, "$lte": h + (1 << 20)},
        "date": window(),
    }
    yield "or-plus-point", {"$or": h_ranges(4), "hilbertIndex": h}
    yield "or-half-open-clause", {
        "$or": h_ranges(2) + [{"hilbertIndex": {"$gte": h}}],
        "date": window(),
    }
    existing = w["$gte"]
    yield "ne-inside-item", {"date": {**window(), "$ne": existing}}
    yield "ne-beside-range", {
        "$and": [{"date": window()}, {"date": {"$ne": existing}}]
    }
    yield "exists-inside-item", {"date": {**window(), "$exists": True}}
    yield "not-beside-range", {
        "$and": [{"date": window()}, {"date": {"$not": {"$lt": when()}}}]
    }
    yield "null-eq", {"date": None}
    yield "null-in", {"date": {"$in": [None, when()]}}
    yield "null-bound", {"date": {"$gte": None, "$lte": when()}}
    yield "nan-range", {"hilbertIndex": {"$gte": nan, "$lte": h}}
    yield "nan-range-hi", {"hilbertIndex": {"$gte": h, "$lte": math.nan}}
    yield "nan-in", {"hilbertIndex": {"$in": [nan, h]}, "date": window()}
    yield "nan-or", {
        "$or": h_ranges(2) + [{"hilbertIndex": {"$gte": nan, "$lte": nan}}]
    }
    yield "in-array-member", {"date": {"$in": [[when(), when()], when()]}}
    yield "in-array-member-hil", {
        "hilbertIndex": {"$in": [[h, h + 1], h]},
        "date": window(),
    }
    yield "eq-object", {"date": {"$eq": {"y": 2018}}}


def _odd_documents(template, tag):
    """Copies of a stored document with an off-type ``date`` (or a
    string ``hilbertIndex``): what sentinel-ended bounds wrongly admit."""
    for date in ("2018-08-01", None, 20180801, True):
        doc = {k: v for k, v in template.items() if k != "_id"}
        doc.update(date=date, tag=tag)
        yield doc
    doc = {k: v for k, v in template.items() if k not in ("_id", "date")}
    doc["tag"] = tag
    yield doc
    doc = {k: v for k, v in template.items() if k != "_id"}
    doc.update(hilbertIndex="zz", tag=tag)
    yield doc


class TestResidualFilter:
    @pytest.fixture()
    def seeded(self, deployment):
        """The shared deployment plus documents of every odd date type."""
        cluster = deployment.cluster
        template = cluster.find(COLLECTION, {}).documents[0]
        cluster.insert_many(COLLECTION, list(_odd_documents(template, "odd")))
        cluster.create_index(
            COLLECTION,
            [("vehicle_id", 1), ("speed_kmh", 1), ("date", 1)],
            name="veh_speed_date",
        )
        yield deployment
        cluster.drop_index(COLLECTION, "veh_speed_date")
        assert cluster.delete_many(COLLECTION, {"tag": "odd"}) == 6

    def _hilberts(self, deployment):
        docs = deployment.cluster.find(COLLECTION, {}).documents
        return sorted(d.get("hilbertIndex", 0) for d in docs[:200])

    def test_exactness_cases_identical_across_three_arms(self, seeded):
        cluster = seeded.cluster
        rng = random.Random(20260928)
        hilberts = self._hilberts(seeded)
        first_shard = next(iter(cluster.shards.values()))
        hints = [None] + [
            d.name
            for d in first_shard.collection(COLLECTION).index_definitions()
            if d.name not in ("_id_", "veh_speed_date")
        ]
        matched = 0
        for _round in range(6):
            for label, query in _edge_queries(rng, hilberts):
                for hint in hints:
                    slow = _three_way(cluster, query, hint, label)
                    matched += bool(slow and slow.documents)
        # The differential must have driven non-empty result sets, not
        # only unusable hints and empty answers.
        assert matched > 50

    def test_hinted_prefix_excluding_the_path_keeps_its_predicate(
        self, seeded
    ):
        # (vehicle_id, speed_kmh, date): no speed predicate, so bounds
        # stop at vehicle_id and the exact-form date window is outside
        # the bounded prefix — it must stay in the filter.
        rng = random.Random(7)
        cluster = seeded.cluster
        for _ in range(20):
            a = _TIME_LO + _dt.timedelta(seconds=rng.randrange(_TIME_SPAN_S))
            query = {
                "vehicle_id": rng.randrange(30),
                "date": {"$gte": a, "$lte": a + _dt.timedelta(days=9)},
            }
            slow = _three_way(cluster, query, "veh_speed_date", "prefix")
            shard = cluster.shards[slow.stats.targeted_shards[0]]
            plan = shard.collection(COLLECTION).find_with_stats(
                query, hint="veh_speed_date"
            ).plan
            assert plan.covered_paths == {"vehicle_id"}

    def test_array_date_flips_multikey_on_and_off(self, seeded):
        cluster = seeded.cluster
        rng = random.Random(11)
        hilberts = self._hilberts(seeded)
        queries = [q for _l, q in _edge_queries(rng, hilberts)][:2]
        template = cluster.find(COLLECTION, {}).documents[0]
        inside = queries[0]["date"]["$gte"]
        array_doc = {k: v for k, v in template.items() if k != "_id"}
        array_doc.update(
            date=[inside - _dt.timedelta(days=400), inside], tag="array"
        )

        def multikey():
            return any(
                shard.collection(COLLECTION).get_index(d.name).is_multikey()
                for shard in cluster.shards.values()
                for d in shard.collection(COLLECTION).index_definitions()
            )

        for query in queries:
            _three_way(cluster, query, label="before-array")
        assert not multikey()
        cluster.insert_many(COLLECTION, [array_doc])
        assert multikey()
        for query in queries:
            _three_way(cluster, query, label="multikey")
        assert cluster.delete_many(COLLECTION, {"tag": "array"}) == 1
        assert not multikey()
        for query in queries:
            _three_way(cluster, query, label="after-array")


# NaN is admitted as a stored value and as a bound: ``bson.sort_key``
# gives it one place in the order (below every number), so a NaN key
# cannot break the B-tree's total order.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-5, max_value=5),
    st.floats(allow_nan=True, allow_infinity=True, width=16),
    st.sampled_from(["", "a", "b", "2018"]),
    st.datetimes(
        min_value=_dt.datetime(2018, 1, 1),
        max_value=_dt.datetime(2018, 1, 9),
    ),
)
_stored = st.one_of(_scalars, st.lists(_scalars, max_size=3))
_ops = st.dictionaries(
    st.sampled_from(["$eq", "$gt", "$gte", "$lt", "$lte", "$ne"]),
    _scalars,
    min_size=1,
    max_size=3,
)
_items = st.one_of(
    _ops,
    _scalars,
    st.builds(
        lambda members: {"$in": members},
        st.lists(st.one_of(_scalars, _stored), max_size=3),
    ),
)
_or_clause = st.builds(
    lambda lo, hi: {"v": {"$gte": lo, "$lte": hi}}, _scalars, _scalars
)
_query = st.one_of(
    st.builds(lambda item: {"v": item}, _items),
    st.builds(
        lambda a, b: {"$and": [{"v": a}, {"v": b}]}, _items, _items
    ),
    st.builds(
        lambda clauses, item: {"$or": clauses, "w": item},
        st.lists(_or_clause, min_size=1, max_size=3),
        _items,
    ),
    st.builds(
        lambda clauses, item: {"$or": clauses, "v": item},
        st.lists(_or_clause, min_size=1, max_size=3),
        _items,
    ),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_stored, min_size=1, max_size=12), query=_query)
# A range clause whose ends lie in different type brackets matches
# nothing of either bracket, inside an $or as outside it.
@example(
    values=[False],
    query={
        "$or": [{"v": {"$gte": False, "$lte": _dt.datetime(2018, 1, 1)}}],
        "v": False,
    },
)
# Each end of an $or range may be met by a different array element.
@example(values=[[1, 10]], query={"$or": [{"v": {"$gte": 5, "$lte": 6}}], "w": 0})
def test_key_within_exact_bounds_implies_dropped_predicates(values, query):
    """Random stored values x random bounds: whatever the planner calls
    covered, every document the bounds admit satisfies the predicates
    the residual dropped — and the compiled scan equals the reference,
    and the compiled matcher the reference interpreter on every
    stored document.
    """
    col = Collection("t")
    col.create_index([("v", 1), ("w", 1)], name="v_w")
    for i, value in enumerate(values):
        col.insert_one({"_id": i, "v": value, "w": i % 3})
    assert_one_walk_matches_reference(query, col.all_documents())
    shape, matcher = parse_query(query)
    plan = plan_query(shape, [col.get_index("v_w")], len(col))
    if plan.kind == "IXSCAN":
        residual = matcher.residual(plan.covered_paths)
        records = {i: d for i, d in enumerate(col.all_documents())}
        for rid in run_index_scan(plan, ExecutionStats()):
            assert residual(records[rid]) == matcher.matches(records[rid])
    fast = col.find_with_stats(query)
    slow = reference_find(col, query)
    assert fast.documents == slow.documents
    assert fast.stats.as_dict() == slow.stats.as_dict()
