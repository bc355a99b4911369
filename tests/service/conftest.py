"""Shared fixtures for the query-service test suite."""

from __future__ import annotations

import random

import pytest

from repro.cluster.cluster import ClusterTopology, ShardedCluster
from repro.sanitizer import LockOrderSanitizer, instrument_query_service
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

    Each QueryService constructed during the test gets its locks
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


@pytest.fixture
def seeded_cluster() -> ShardedCluster:
    return build_seeded_cluster()


@pytest.fixture
def cluster_factory():
    """The builder itself, for tests that need custom sizing."""
    return build_seeded_cluster
