"""Load generator: closed loop, open-loop overload, workload rendering."""

import threading

import pytest

from repro.errors import ServiceError
from repro.service import (
    LoadGenerator,
    QueryService,
    ServiceConfig,
    render_workload,
)

WORKLOAD = [
    {"k": {"$gte": lo, "$lt": lo + 800}} for lo in range(0, 8000, 1000)
]


class TestClosedLoop:
    def test_completes_all_queries(self, seeded_cluster):
        with QueryService(seeded_cluster) as service:
            gen = LoadGenerator(service, "t", WORKLOAD)
            report = gen.run_closed_loop(clients=4, total_queries=40)
        assert report.mode == "closed"
        assert report.offered == 40
        assert report.completed == 40
        assert report.rejected == 0
        assert report.errors == 0
        assert report.achieved_qps > 0
        assert report.p99_latency_ms >= report.p50_latency_ms > 0
        payload = report.as_dict()
        assert payload["completed"] == 40
        assert payload["planOutcomes"] == {"shapeHits": 40, "misses": 0}

    def test_single_client_is_serial(self, seeded_cluster):
        config = ServiceConfig()
        with QueryService(seeded_cluster, config) as service:
            report = LoadGenerator(service, "t", WORKLOAD).run_closed_loop(
                clients=1, total_queries=10
            )
        assert report.completed == 10
        assert report.clients == 1

    def test_rejects_bad_parameters(self, seeded_cluster):
        with QueryService(seeded_cluster) as service:
            gen = LoadGenerator(service, "t", WORKLOAD)
            with pytest.raises(ServiceError):
                gen.run_closed_loop(clients=0, total_queries=10)
            with pytest.raises(ServiceError):
                gen.run_closed_loop(clients=1, total_queries=0)
            with pytest.raises(ServiceError):
                LoadGenerator(service, "t", [])


class TestOpenLoop:
    def test_overload_produces_rejections(self, seeded_cluster):
        # Tiny service, big offered rate, and an exclusive writer parked
        # for the whole run so every admitted read waits (and expires)
        # on its shard lock: the bounded queue must shed load rather
        # than grow unboundedly.
        config = ServiceConfig(
            max_workers=1,
            max_concurrent_queries=1,
            max_queue_depth=1,
            default_timeout_ms=100.0,
        )
        with QueryService(seeded_cluster, config) as service:
            release = threading.Event()
            entered = threading.Event()
            writer = threading.Thread(
                target=service._run_exclusive,
                args=(lambda: (entered.set(), release.wait(10)),),
            )
            writer.start()
            assert entered.wait(timeout=5)
            try:
                gen = LoadGenerator(service, "t", WORKLOAD)
                report = gen.run_open_loop(
                    target_qps=200, duration_s=0.5, clients=4
                )
            finally:
                release.set()
                writer.join()
        assert report.mode == "open"
        assert report.offered > report.completed
        assert report.rejected > 0
        assert report.errors == 0
        assert (
            report.completed + report.rejected + report.timed_out
            == report.offered
        )

    def test_underload_completes_everything(self, seeded_cluster):
        with QueryService(seeded_cluster) as service:
            gen = LoadGenerator(service, "t", WORKLOAD)
            report = gen.run_open_loop(target_qps=20, duration_s=0.4)
        assert report.rejected == 0
        assert report.completed == report.offered > 0

    def test_rejects_bad_parameters(self, seeded_cluster):
        with QueryService(seeded_cluster) as service:
            gen = LoadGenerator(service, "t", WORKLOAD)
            with pytest.raises(ServiceError):
                gen.run_open_loop(target_qps=0, duration_s=1)
            with pytest.raises(ServiceError):
                gen.run_open_loop(target_qps=10, duration_s=0)


class TestRenderWorkload:
    def test_renders_paper_queries(self):
        import datetime as dt

        from repro import SpatioTemporalQuery, make_approach
        from repro.geo import BoundingBox

        t0 = dt.datetime(2018, 8, 1, tzinfo=dt.timezone.utc)
        queries = [
            SpatioTemporalQuery(
                bbox=BoundingBox(23.5 + i * 0.05, 37.8, 23.8 + i * 0.05, 38.1),
                time_from=t0,
                time_to=t0 + dt.timedelta(days=2),
                label="Q%d" % i,
            )
            for i in range(3)
        ]
        for name in ("bslST", "hil"):
            rendered = render_workload(make_approach(name), queries)
            assert len(rendered) == 3
            assert all(isinstance(q, dict) and q for q in rendered)
