"""QueryService: parity with the library path, planning, admission."""

import threading
import time

import pytest

from repro.cluster.cluster import ClusterTopology, ShardedCluster
from repro.errors import (
    QueryTimeoutError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.service import QueryService, ServiceConfig
from repro.service.metrics import SAMPLE_WINDOW, ServiceMetrics

QUERY = {"k": {"$gte": 1000, "$lt": 5000}}
BROADCAST = {"group": 3}  # does not constrain the shard key


class TestResultParity:
    def test_documents_and_stats_match_library_path(self, seeded_cluster):
        base = seeded_cluster.find("t", QUERY)
        with QueryService(seeded_cluster) as service:
            served = service.find("t", QUERY)
        assert [d["_id"] for d in served.documents] == [
            d["_id"] for d in base.documents
        ]
        assert served.stats.as_dict() == base.stats.as_dict()

    def test_parity_holds_on_repeated_query(self, seeded_cluster):
        base = seeded_cluster.find("t", QUERY)
        with QueryService(seeded_cluster) as service:
            first = service.find("t", QUERY)
            second = service.find("t", QUERY)
        for served in (first, second):
            assert served.cache_outcome == "shape"
            assert served.stats.as_dict() == base.stats.as_dict()
            assert [d["_id"] for d in served.documents] == [
                d["_id"] for d in base.documents
            ]

    def test_broadcast_parity(self, seeded_cluster):
        base = seeded_cluster.find("t", BROADCAST)
        with QueryService(seeded_cluster) as service:
            served = service.find("t", BROADCAST)
        assert served.stats.broadcast
        assert sorted(d["_id"] for d in served) == sorted(
            d["_id"] for d in base
        )

    def test_sequential_mode_parity(self, seeded_cluster):
        base = seeded_cluster.find("t", QUERY)
        config = ServiceConfig()
        with QueryService(seeded_cluster, config) as service:
            served = service.find("t", QUERY)
        assert served.stats.as_dict() == base.stats.as_dict()

    def test_count_documents(self, seeded_cluster):
        expected = seeded_cluster.count_documents("t", QUERY)
        with QueryService(seeded_cluster) as service:
            assert service.count_documents("t", QUERY) == expected


def _two_index_cluster() -> ShardedCluster:
    cluster = ShardedCluster(topology=ClusterTopology(n_shards=3))
    cluster.shard_collection("t", [("_id", 1)])
    cluster.insert_many(
        "t",
        [
            {"_id": i, "a": i % 1000, "b": (i * 7) % 1000, "c": 1}
            for i in range(3000)
        ],
    )
    cluster.create_index("t", [("a", 1)], name="a_1")
    cluster.create_index("t", [("b", 1)], name="b_1")
    return cluster


def _ne_query(a, b):
    """Two ranged paths plus a ``$ne``: not parameterizable."""
    return {
        "a": {"$gte": a[0], "$lte": a[1]},
        "b": {"$gte": b[0], "$lte": b[1]},
        "c": {"$ne": 0},
    }


class TestOnePlanningPath:
    @pytest.mark.parametrize("flip", [False, True])
    def test_no_winner_is_replayed_across_a_value_free_shape(self, flip):
        # Same value-free shape, opposite selectivities: a_1 wins the
        # first query, b_1 the second.  Replaying the first winner as a
        # hint made the second scan 3 000 keys where the library path
        # scans 36.
        cluster = _two_index_cluster()
        pair = [((10, 20), (0, 999)), ((0, 999), (10, 20))]
        if flip:
            pair.reverse()
        with QueryService(cluster) as service:
            for a, b in pair:
                served = service.find("t", _ne_query(a, b))
                base = cluster.find("t", _ne_query(a, b))
                assert served.hint_used is None
                assert served.cache_outcome == "miss"
                assert served.stats.as_dict() == base.stats.as_dict()
                assert served.documents == base.documents

    def test_explicit_hint_passes_through(self, seeded_cluster):
        seeded_cluster.create_index("t", [("group", 1)], name="group_1")
        base = seeded_cluster.find("t", BROADCAST, hint="group_1")
        with QueryService(seeded_cluster) as service:
            served = service.find("t", BROADCAST, hint="group_1")
        assert served.hint_used == "group_1"
        assert served.cache_outcome is None
        assert served.stats.as_dict() == base.stats.as_dict()


class TestAdmissionControl:
    def test_overload_rejection(self, seeded_cluster):
        config = ServiceConfig(
            max_workers=1, max_concurrent_queries=1, max_queue_depth=0
        )
        service = QueryService(seeded_cluster, config)
        release = threading.Event()
        entered = threading.Event()
        errors = []

        # Occupy the only slot with a write that blocks on `release`.
        def slow_write():
            try:
                service._run_exclusive(
                    lambda: (entered.set(), release.wait(5))
                )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        t = threading.Thread(target=slow_write)
        t.start()
        entered.wait(timeout=5)
        with pytest.raises(ServiceOverloadedError):
            service.find("t", QUERY)
        release.set()
        t.join()
        assert not errors
        assert service.metrics.rejected == 1
        # Capacity freed: the same query now succeeds.
        assert len(service.find("t", QUERY)) >= 0
        service.shutdown()

    def test_queue_depth_admits_waiting_requests(self, seeded_cluster):
        config = ServiceConfig(
            max_workers=2, max_concurrent_queries=2, max_queue_depth=8
        )
        with QueryService(seeded_cluster, config) as service:
            results = []

            def client():
                results.append(len(service.find("t", QUERY)))

            threads = [threading.Thread(target=client) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(results) == 6
            assert service.metrics.rejected == 0

    def test_deadline_expires_in_queue(self, seeded_cluster):
        config = ServiceConfig(
            max_workers=1, max_concurrent_queries=1, max_queue_depth=2
        )
        service = QueryService(seeded_cluster, config)
        release = threading.Event()
        entered = threading.Event()

        def slow_write():
            service._run_exclusive(lambda: (entered.set(), release.wait(5)))

        t = threading.Thread(target=slow_write)
        t.start()
        entered.wait(timeout=5)
        try:
            with pytest.raises(QueryTimeoutError):
                service.find("t", QUERY, timeout_ms=80)
            assert service.metrics.timed_out == 1
        finally:
            release.set()
            t.join()
            service.shutdown()

    def test_rejected_after_shutdown(self, seeded_cluster):
        service = QueryService(seeded_cluster)
        service.shutdown()
        with pytest.raises(ServiceError):
            service.find("t", QUERY)


class TestWritesThroughService:
    def test_insert_update_delete(self, seeded_cluster):
        with QueryService(seeded_cluster) as service:
            n0 = service.count_documents("t", {})
            assert (
                service.insert_many(
                    "t",
                    [
                        {"_id": 90_001, "k": 123, "group": 1, "counter": 0},
                        {"_id": 90_002, "k": 456, "group": 2, "counter": 0},
                    ],
                )
                == 2
            )
            assert service.count_documents("t", {}) == n0 + 2
            assert (
                service.update_many(
                    "t", {"_id": 90_001}, {"$inc": {"counter": 5}}
                )
                == 1
            )
            [doc] = service.find("t", {"_id": 90_001}).documents
            assert doc["counter"] == 5
            assert service.delete_many("t", {"_id": 90_002}) == 1
            assert service.count_documents("t", {}) == n0 + 1
            assert service.metrics.writes == 3


class TestServiceMetrics:
    def test_latency_and_queue_wait_recorded(self, seeded_cluster):
        with QueryService(seeded_cluster) as service:
            for _ in range(5):
                service.find("t", QUERY)
            snap = service.metrics_snapshot()
            assert snap.completed == 5
            assert snap.p50_latency_ms > 0
            assert snap.p99_latency_ms >= snap.p50_latency_ms
            assert snap.plan_outcomes == {"shapeHits": 5, "misses": 0}
            payload = snap.as_dict()
            assert payload["completed"] == 5
            assert payload["planOutcomes"] == snap.plan_outcomes

    def test_samples_are_bounded_and_totals_stay_exact(self):
        # A long-running service must not keep one float per query
        # forever: only the percentile window holds samples, while the
        # count, means and maxima cover every query recorded.
        metrics = ServiceMetrics()
        n = 100_000
        latencies = [float(i % 1000) for i in range(n)]
        waits = [float(i % 7) for i in range(n)]
        for latency, wait in zip(latencies, waits):
            metrics.record_query(latency, wait)
        held = sum(
            len(value)
            for value in vars(metrics).values()
            if hasattr(value, "__len__")
        )
        assert held <= SAMPLE_WINDOW
        snap = metrics.snapshot()
        assert snap.completed == n
        assert snap.mean_latency_ms == sum(latencies) / n
        assert snap.max_latency_ms == max(latencies)
        assert snap.mean_queue_wait_ms == sum(waits) / n
        assert snap.max_queue_wait_ms == max(waits)
        # The percentiles describe the most recent window.
        assert snap.p50_latency_ms == sorted(latencies[-SAMPLE_WINDOW:])[
            round(0.5 * (SAMPLE_WINDOW - 1))
        ]
        # Throughput counts every completion, not the samples kept.
        span = metrics._last_at - metrics._first_at
        assert snap.throughput_qps == (n - 1) / span


class TestServiceBackedMeasurement:
    def test_measure_query_through_service(self):
        import datetime as dt

        from repro import (
            QueryService,
            SpatioTemporalQuery,
            deploy_approach,
            make_approach,
            measure_query,
        )
        from repro.cluster.cluster import ClusterTopology
        from repro.datagen import FleetConfig, FleetGenerator
        from repro.geo import BoundingBox

        docs = FleetGenerator(FleetConfig(n_vehicles=10)).generate_list(400)
        deployment = deploy_approach(
            make_approach("hil"),
            docs,
            topology=ClusterTopology(n_shards=3),
        )
        query = SpatioTemporalQuery(
            bbox=BoundingBox(23.60, 37.90, 23.90, 38.10),
            time_from=dt.datetime(2018, 8, 1, tzinfo=dt.timezone.utc),
            time_to=dt.datetime(2018, 8, 8, tzinfo=dt.timezone.utc),
            label="Qtest",
        )
        direct = measure_query(deployment, query, runs=2, average_last=1)
        with QueryService(deployment.cluster) as service:
            served = measure_query(
                deployment, query, runs=2, average_last=1, service=service
            )
        assert served.n_returned == direct.n_returned
        assert served.nodes == direct.nodes
        assert served.max_keys_examined == direct.max_keys_examined
        assert served.max_docs_examined == direct.max_docs_examined
        assert served.execution_time_ms == pytest.approx(
            direct.execution_time_ms
        )
