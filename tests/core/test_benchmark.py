"""Tests for the measurement methodology."""

import datetime as dt
import random

import pytest

from repro.cluster.cluster import ClusterTopology
from repro.core.approaches import deploy_approach, make_approach
from repro.core.benchmark import measure_query
from repro.core.loader import BulkLoader
from repro.core.query import SpatioTemporalQuery
from repro.geo.geometry import BoundingBox

UTC = dt.timezone.utc
T0 = dt.datetime(2018, 7, 1, tzinfo=UTC)


@pytest.fixture(scope="module")
def deployment():
    rng = random.Random(7)
    docs = [
        {
            "location": {
                "type": "Point",
                "coordinates": [rng.uniform(23.0, 24.5), rng.uniform(37.5, 38.6)],
            },
            "date": T0 + dt.timedelta(minutes=rng.uniform(0, 60 * 24 * 60)),
        }
        for _ in range(400)
    ]
    return deploy_approach(
        make_approach("hil"),
        docs,
        topology=ClusterTopology(n_shards=3),
        chunk_max_bytes=8 * 1024,
        loader=BulkLoader(batch_size=200),
    )


def make_query(label="Qx"):
    return SpatioTemporalQuery(
        bbox=BoundingBox(23.5, 37.9, 24.1, 38.4),
        time_from=T0,
        time_to=T0 + dt.timedelta(days=10),
        label=label,
    )


class TestMeasureQuery:
    def test_fields_populated(self, deployment):
        m = measure_query(deployment, make_query(), runs=3, average_last=2)
        assert m.approach == "hil"
        assert m.query_label == "Qx"
        assert m.n_returned > 0
        assert m.nodes >= 1
        assert m.execution_time_ms > 0
        assert m.wall_time_ms > 0
        assert m.max_keys_examined > 0

    def test_index_usage_recorded(self, deployment):
        m = measure_query(deployment, make_query(), runs=2, average_last=1)
        assert m.index_used_by_shard
        assert all(
            name == "shardkey_hilbertIndex_date"
            for name in m.index_used_by_shard.values()
        )

    def test_model_time_deterministic(self, deployment):
        a = measure_query(deployment, make_query(), runs=2, average_last=1)
        b = measure_query(deployment, make_query(), runs=2, average_last=1)
        assert a.execution_time_ms == b.execution_time_ms
        assert a.max_keys_examined == b.max_keys_examined

    def test_run_validation(self, deployment):
        with pytest.raises(ValueError):
            measure_query(deployment, make_query(), runs=0)
        with pytest.raises(ValueError):
            measure_query(deployment, make_query(), runs=2, average_last=5)
