"""Differential testing of the service's one planning path.

A service read binds its query's values into the parameterized shape
(or analyzes the query when the structure is not parameterizable);
nothing is carried from one query to the next.  Binding is a pure
performance transform: it must produce exactly what full analysis +
compilation produces.  ~200 randomized calls run through three arms
over the same deployed cluster —

* **reference** — ``repro.reference.reference_cluster_find`` (the
  paper-faithful interpreter, uncached);
* **service** — the default configuration: every call binds;
* **library** — ``ShardedCluster.find``, which analyzes and compiles
  each query without binding.

Every arm must return byte-identical documents AND identical execution
counters (``keysExamined``/``docsExamined``, per shard) for every
query, and the outcome counters must show the service arm bound every
call (the differential covered what it claims to).  The remaining
classes pin what having no plan store buys: non-parameterizable
structures are analyzed and still match the reference, a shape's
first-ever query binds, and nothing a write, DDL or storage flush does
between two identical queries can make the second one differ from a
fresh service's answer.
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
from repro.geo import BoundingBox
from repro.reference import reference_cluster_find
from repro.service import QueryService, ServiceConfig
from repro.workloads.queries import randomized_queries

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
    config = ServiceConfig()
    with QueryService(deployment.cluster, config) as service:
        frames = [
            frame(service.find(COLLECTION, query)) for query in workload
        ]
        outcomes = dict(service.metrics_snapshot().plan_outcomes)
    return frames, outcomes


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

    def test_each_arm_exercised_its_path(self, arm_results, workload):
        _, service = arm_results["service"]
        # The service arm bound every call, first sightings included.
        assert service == {"shapeHits": len(workload), "misses": 0}


class TestShapeBindingAcrossConstants:
    def test_fresh_constants_bind_without_divergence(
        self, deployment
    ):
        """Never-repeated constants must bind and match the library path.

        The module workload replays each query twice; this drives 100
        distinct literals through a fresh service — its very first
        query already binds — and compares against analysis +
        compilation without binding.
        """
        encoder = deployment.approach.encoder
        stream = [
            st.to_hilbert_query(encoder).query
            for st in randomized_queries(100, seed=99)
        ]
        with QueryService(deployment.cluster, ServiceConfig()) as service:
            served = [service.find(COLLECTION, q) for q in stream]
        assert [r.cache_outcome for r in served] == ["shape"] * len(stream)
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
            for q in [WIDE] + randomized_queries(12, seed=11)
        ]
        expected = [reference_frame(dep.cluster, q) for q in rendered]
        with QueryService(dep.cluster, ServiceConfig()) as service:
            served = [service.find(COLLECTION, q) for q in rendered]
        assert served[0].documents
        assert [r.cache_outcome for r in served] == ["shape"] * len(rendered)
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
            # Twice: the second sighting is analyzed afresh, no hint.
            served = [service.find(COLLECTION, query) for _ in range(2)]
        assert expected.documents, "the case must select something"
        for result in served:
            assert result.cache_outcome == "miss"
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
        assert after.cache_outcome == "shape"
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
