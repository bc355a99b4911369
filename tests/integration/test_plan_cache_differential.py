"""Differential testing of the one walk that plans every read.

A read parses its query once: ``parse_query`` compiles the matcher and
builds the planner's shape in the same walk, and nothing is carried
from one query to the next.  The walk is a pure performance transform,
so it must produce exactly what the independent oracles produce:

* its shape equals ``analyze_query``'s path by path — eq/in values,
  range ends with their inclusivity, ``$or`` intervals, the bound
  operator count, the geo region — and in ``opaque_or``
  (:func:`assert_one_walk_matches_reference`);
* its matcher agrees with ``reference_matches``, the paper-faithful
  interpreter, on every document it is shown.

~200 randomized calls also run through three arms over the same
deployed cluster — **reference** (``reference_cluster_find``,
uncached), **service** (the default configuration) and **library**
(``ShardedCluster.find``) — which must return byte-identical documents
and identical execution counters (``keysExamined``/``docsExamined``,
per shard).  The remaining classes drive every rendered query of the
four approaches and structures the planner cannot bound through the
same checks, and pin what having no plan store buys: nothing a write,
DDL or storage flush does between two identical queries can make the
second one differ from a fresh service's answer.
"""

import datetime as dt

import pytest

from repro.cluster.cluster import ClusterTopology
from repro.core.approaches import (
    APPROACH_NAMES,
    COLLECTION,
    HilbertApproach,
    deploy_approach,
    make_approach,
)
from repro.core.query import SpatioTemporalQuery
from repro.datagen import FleetConfig, FleetGenerator
from repro.datagen.datasets import ReproScale, load_r_dataset
from repro.docstore.lsm import DurabilityConfig
from repro.docstore.matcher import parse_query
from repro.docstore.planner import analyze_query
from repro.geo import BoundingBox
from repro.reference import reference_cluster_find, reference_matches
from repro.service import QueryService, ServiceConfig
from repro.workloads.queries import (
    big_queries,
    randomized_queries,
    small_queries,
)

#: Everything a :class:`~repro.docstore.planner.PathPredicate` asserts.
PREDICATE_FIELDS = (
    "eq_values",
    "in_values",
    "gt",
    "gt_inclusive",
    "lt",
    "lt_inclusive",
    "or_intervals",
    "n_bound_ops",
    "geo_region",
)


def assert_one_walk_matches_reference(query, documents=()):
    """``parse_query(query)`` against the independent oracles.

    The shape must equal ``analyze_query``'s path by path, and the
    matcher must agree with ``reference_matches`` on each document.
    Values are compared by identity first: both walks read the same
    query objects, and a NaN bound equals only itself.
    """
    shape, matcher = parse_query(query)
    oracle = analyze_query(query)
    assert shape.opaque_or == oracle.opaque_or, query
    assert shape.predicates.keys() == oracle.predicates.keys(), query
    for path, got in shape.predicates.items():
        want = oracle.predicates[path]
        for name in PREDICATE_FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert a is b or a == b, (path, name, query)
    for document in documents:
        assert matcher.matches(document) == reference_matches(
            query, document
        ), (query, document)
    return shape


N_DOCS = 800
N_DISTINCT = 100  # each replayed twice -> 200 calls per arm
TOPOLOGY = ClusterTopology(n_shards=4, n_config_servers=1, n_routers=1)
#: Selects a sizeable part of any generated fleet data set.
WIDE = SpatioTemporalQuery(
    bbox=BoundingBox(22.0, 36.0, 26.0, 40.0),
    time_from=dt.datetime(2018, 7, 1, tzinfo=dt.timezone.utc),
    time_to=dt.datetime(2018, 12, 1, tzinfo=dt.timezone.utc),
)


def frame(result):
    return (result.documents, result.stats.as_dict())


@pytest.fixture(scope="module")
def deployment():
    docs = FleetGenerator(FleetConfig(seed=7)).generate_list(N_DOCS)
    return deploy_approach(
        HilbertApproach.global_domain(order=15),
        docs,
        topology=TOPOLOGY,
        chunk_max_bytes=128 * 1024,
    )


@pytest.fixture(scope="module")
def workload(deployment):
    """Rendered query documents: 100 distinct, each replayed twice.

    Rendered once, outside the arms, so all three replay verbatim the
    same documents — the differential isolates planning, nothing else.
    The second replay of each query pins that a repeat is planned like
    a first sighting.
    """
    encoder = deployment.approach.encoder
    rendered = [
        st.to_hilbert_query(encoder).query
        for st in randomized_queries(N_DISTINCT, seed=5)
    ]
    return rendered + rendered


def reference_frame(cluster, query):
    return frame(reference_cluster_find(cluster, COLLECTION, query))


def run_service_arm(deployment, workload):
    with QueryService(deployment.cluster, ServiceConfig()) as service:
        frames = [
            frame(service.find(COLLECTION, query)) for query in workload
        ]
        completed = service.metrics_snapshot().completed
    return frames, completed


def sample(cluster, step=8):
    """Every ``step``-th stored document, in ``_id`` order."""
    documents = reference_cluster_find(cluster, COLLECTION, {}).documents
    return sorted(documents, key=lambda d: d["_id"])[::step]


class TestThreeWayDifferential:
    @pytest.fixture(scope="class")
    def arm_results(self, deployment, workload):
        library = [
            frame(deployment.cluster.find(COLLECTION, query))
            for query in workload
        ]
        reference = [
            reference_frame(deployment.cluster, query) for query in workload
        ]
        return {
            "reference": (reference, None),
            "service": run_service_arm(deployment, workload),
            "library": (library, None),
        }

    def test_documents_and_counters_identical(self, arm_results):
        reference, _ = arm_results["reference"]
        for name in ("service", "library"):
            frames, _ = arm_results[name]
            for i, (got, ref) in enumerate(zip(frames, reference)):
                assert got[0] == ref[0], (
                    "%s arm: documents diverged on call %d" % (name, i)
                )
                assert got[1] == ref[1], (
                    "%s arm: counters diverged on call %d" % (name, i)
                )

    def test_each_arm_exercised_its_path(
        self, arm_results, deployment, workload
    ):
        _, completed = arm_results["service"]
        assert completed == len(workload)
        documents = sample(deployment.cluster)
        for query in workload:
            shape = assert_one_walk_matches_reference(query, documents)
            # The walk folded the Hilbert $or into the shape's bounds
            # and parsed the region: the differential covered both.
            assert shape.predicate("hilbertIndex").or_intervals, query
            assert shape.predicate("location").geo_region is not None


class TestShapeBindingAcrossConstants:
    def test_fresh_constants_bind_without_divergence(
        self, deployment
    ):
        """Never-repeated constants parse to the reference's shape and
        serve what the library path serves.

        The module workload replays each query twice; this drives 100
        distinct literals through a fresh service.
        """
        encoder = deployment.approach.encoder
        stream = [
            st.to_hilbert_query(encoder).query
            for st in randomized_queries(100, seed=99)
        ]
        with QueryService(deployment.cluster, ServiceConfig()) as service:
            served = [service.find(COLLECTION, q) for q in stream]
        for query in stream:
            assert_one_walk_matches_reference(query)
        cold = [
            frame(deployment.cluster.find(COLLECTION, q)) for q in stream
        ]
        assert [frame(r) for r in served] == cold


class TestEveryApproachBinds:
    @pytest.fixture(scope="class")
    def r_dataset(self):
        return load_r_dataset(ReproScale(r1_records=400))

    @pytest.mark.parametrize("name", APPROACH_NAMES)
    def test_rendered_queries_report_shape(self, name, r_dataset):
        info, docs = r_dataset
        dep = deploy_approach(
            make_approach(name, dataset_bbox=info.bbox),
            docs,
            topology=TOPOLOGY,
            chunk_max_bytes=64 * 1024,
        )
        rendered = [
            dep.approach.render_query(q)[0]
            for q in [WIDE]
            + small_queries()
            + big_queries()
            + randomized_queries(12, seed=11)
        ]
        documents = sample(dep.cluster)
        for query in rendered:
            assert_one_walk_matches_reference(query, documents)
        expected = [reference_frame(dep.cluster, q) for q in rendered]
        with QueryService(dep.cluster, ServiceConfig()) as service:
            served = [service.find(COLLECTION, q) for q in rendered]
        assert served[0].documents
        assert [frame(r) for r in served] == expected


WINDOW = {
    "$gte": dt.datetime(2018, 7, 1, tzinfo=dt.timezone.utc),
    "$lte": dt.datetime(2018, 9, 1, tzinfo=dt.timezone.utc),
}

NOT_PARAMETERIZABLE = {
    "ne": {"date": WINDOW, "vehicle_id": {"$ne": 3}},
    "exists": {"date": WINDOW, "speed_kmh": {"$exists": True}},
    "multi-path-or": {
        "$or": [
            {"vehicle_id": {"$lte": 2}},
            {"hilbertIndex": {"$lte": 2**20}},
        ],
        "date": WINDOW,
    },
}


class TestAnalyzedStructures:
    @pytest.mark.parametrize("label", sorted(NOT_PARAMETERIZABLE))
    def test_miss_matches_the_interpreter(self, deployment, label):
        query = NOT_PARAMETERIZABLE[label]
        expected = reference_cluster_find(
            deployment.cluster, COLLECTION, query
        )
        with QueryService(deployment.cluster, ServiceConfig()) as service:
            # Twice: the second sighting is parsed afresh, no hint.
            served = [service.find(COLLECTION, query) for _ in range(2)]
        assert expected.documents, "the case must select something"
        shape = assert_one_walk_matches_reference(
            query, sample(deployment.cluster)
        )
        assert shape.opaque_or == (label == "multi-path-or")
        for result in served:
            assert result.hint_used is None
            assert frame(result) == frame(expected)


def fresh_frame(cluster, query):
    with QueryService(cluster, ServiceConfig()) as fresh:
        return frame(fresh.find(COLLECTION, query))


class TestNothingToInvalidate:
    """Mutations between two identical queries: the second one equals
    a brand-new service's answer over the mutated cluster."""

    @pytest.fixture
    def small(self):
        docs = FleetGenerator(FleetConfig(seed=3)).generate_list(300)
        dep = deploy_approach(
            HilbertApproach.global_domain(order=15),
            docs,
            topology=TOPOLOGY,
            chunk_max_bytes=64 * 1024,
        )
        query = dep.approach.render_query(WIDE)[0]
        return dep, query

    def test_writes_between_identical_queries(self, small):
        dep, query = small
        with QueryService(dep.cluster, ServiceConfig()) as service:
            before = service.find(COLLECTION, query)
            assert before.documents
            doomed = before.documents[0]["_id"]
            assert service.delete_many(COLLECTION, {"_id": doomed}) == 1
            clones = [
                dict(d, _id="clone-%d" % i)
                for i, d in enumerate(before.documents[1:4])
            ]
            service.insert_many(COLLECTION, clones)
            after = service.find(COLLECTION, query)
        assert len(after.documents) == len(before.documents) - 1 + len(clones)
        assert frame(after) == fresh_frame(dep.cluster, query)

    def test_index_ddl_between_identical_queries(self, small):
        dep, query = small
        with QueryService(dep.cluster, ServiceConfig()) as service:
            before = service.find(COLLECTION, query)
            service.create_index(
                COLLECTION, [("date", 1)], name="date_only"
            )
            created = service.find(COLLECTION, query)
            assert frame(created) == fresh_frame(dep.cluster, query)
            service.drop_index(COLLECTION, "date_only")
            dropped = service.find(COLLECTION, query)
            assert frame(dropped) == fresh_frame(dep.cluster, query)
        # The new index may win (and reorder) while it exists; once it
        # is gone the answer is the original one, counters included.
        assert sorted(d["record_id"] for d in created.documents) == sorted(
            d["record_id"] for d in before.documents
        )
        assert frame(dropped) == frame(before)

    def test_lsm_flush_between_identical_queries(self, tmp_path):
        docs = FleetGenerator(FleetConfig(seed=3)).generate_list(300)
        dep = deploy_approach(
            HilbertApproach.global_domain(order=15),
            docs[:200],
            topology=TOPOLOGY,
            chunk_max_bytes=64 * 1024,
            durability=DurabilityConfig(
                directory=str(tmp_path),
                memtable_max_bytes=4_000,
                compaction=False,
            ),
        )
        query = dep.approach.render_query(WIDE)[0]
        def flushes():
            return sum(
                shard.database[COLLECTION].stats()["durability"]["flushes"]
                for shard in dep.cluster.shards.values()
                if COLLECTION in shard.database.list_collections()
            )

        flushed_before = flushes()
        try:
            with QueryService(dep.cluster, ServiceConfig()) as service:
                before = service.find(COLLECTION, query)
                # Enough bytes to overflow every shard's memtable.
                service.insert_many(
                    COLLECTION,
                    [dep.approach.transform(d) for d in docs[200:]],
                )
                after = service.find(COLLECTION, query)
            assert flushes() > flushed_before, (
                "the inserts must have flushed a memtable"
            )
            assert len(after.documents) >= len(before.documents)
            assert frame(after) == fresh_frame(dep.cluster, query)
        finally:
            dep.cluster.close()
