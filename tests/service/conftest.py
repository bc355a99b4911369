"""Shared fixtures for the query-service test suite."""

from __future__ import annotations

import random

import pytest

from repro.cluster.cluster import ClusterTopology, ShardedCluster
from repro.sanitizer import (
    CacheTracer,
    LockOrderSanitizer,
    instrument_query_service,
    instrument_targeting_cache,
)
from repro.service.service import QueryService


def build_seeded_cluster(
    n_shards: int = 4, n_docs: int = 500, chunk_max_bytes: int = 4 * 1024
) -> ShardedCluster:
    """A small cluster sharded on ("k", 1) with deterministic documents."""
    cluster = ShardedCluster(
        topology=ClusterTopology(n_shards=n_shards),
        chunk_max_bytes=chunk_max_bytes,
    )
    cluster.shard_collection("t", [("k", 1)])
    rng = random.Random(7)
    docs = [
        {
            "_id": i,
            "k": rng.randrange(0, 10_000),
            "group": i % 10,
            "counter": 0,
            "pad": "x" * 64,
        }
        for i in range(n_docs)
    ]
    cluster.insert_many("t", docs)
    return cluster


@pytest.fixture(autouse=True)
def lock_order_sanitizer(monkeypatch):
    """Run every service test under the runtime lock-order sanitizer.

    Each QueryService constructed during the test gets its shard locks
    swapped for instrumented wrappers, and teardown fails the test if
    the accumulated acquisition graph recorded any violation — a
    lock-order cycle would surface here even if the interleaving that
    deadlocks never happened to fire.
    """
    sanitizer = LockOrderSanitizer()
    original_init = QueryService.__init__

    def instrumented_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        instrument_query_service(self, sanitizer)

    monkeypatch.setattr(QueryService, "__init__", instrumented_init)
    yield sanitizer
    sanitizer.assert_clean()


@pytest.fixture(autouse=True)
def cache_epoch_tracer(monkeypatch):
    """Run every service test under the cache epoch tracer.

    Each QueryService constructed during the test gets its cluster's
    targeting cache wired into one :class:`CacheTracer`; teardown
    fails the test if the cache served a hit whose fill
    predates a governing mutation — the runtime half of the
    CC001–CC004 rules, checked across the whole suite's workloads for
    free.
    """
    tracer = CacheTracer()
    original_init = QueryService.__init__

    def instrumented_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        instrument_targeting_cache(self.cluster, tracer)

    monkeypatch.setattr(QueryService, "__init__", instrumented_init)
    yield tracer
    tracer.assert_clean()


@pytest.fixture
def seeded_cluster() -> ShardedCluster:
    return build_seeded_cluster()


@pytest.fixture
def cluster_factory():
    """The builder itself, for tests that need custom sizing."""
    return build_seeded_cluster
