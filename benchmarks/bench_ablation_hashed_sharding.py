"""Ablation: range vs hashed sharding on the Hilbert key.

Section 3.3: hashed sharding scatters similar keys, which suits
broadcast-heavy workloads but destroys the range-targeting the Hilbert
approach exists to enable.  This ablation shards the same enriched
documents with ``{hilbertIndex: "hashed"}`` and shows every
spatio-temporal query becoming a broadcast.
"""

import pytest

from benchmarks._harness import bench_once, emit, format_table
from repro.cluster.cluster import ClusterTopology, ShardedCluster
from repro.core.approaches import make_approach
from repro.core.benchmark import measure_query
from repro.core.loader import BulkLoader
from repro.core.approaches import Deployment
from repro.workloads.queries import big_queries, small_queries


@pytest.fixture(scope="module")
def hashed_deployment(cache):
    _info, docs = cache.dataset("R")
    approach = make_approach("hil")
    cluster = ShardedCluster(
        topology=ClusterTopology(n_shards=12), chunk_max_bytes=32 * 1024
    )
    cluster.shard_collection(
        "traces", [("hilbertIndex", "hashed")], strategy="hashed"
    )
    # Hashed sharding still needs the range-queryable compound index
    # locally for the $or bounds.
    cluster.create_index(
        "traces", [("hilbertIndex", 1), ("date", 1)], name="hil_date"
    )
    loader = BulkLoader(batch_size=5000, transform=approach.transform)
    loader.load(cluster, "traces", docs)  # ends balanced
    return Deployment(approach=approach, cluster=cluster)


def test_report(hashed_deployment, cache, benchmark):
    range_dep = cache.deployment("hil", "R")
    rows = []
    for q in big_queries():
        for name, dep in (("range", range_dep), ("hashed", hashed_deployment)):
            m = measure_query(dep, q, runs=2, average_last=1)
            rows.append(
                [
                    name,
                    q.label,
                    m.nodes,
                    "yes" if m.nodes == 12 else "no",
                    m.max_keys_examined,
                    "%.2f" % m.execution_time_ms,
                    m.n_returned,
                ]
            )
    emit(
        "ablation_hashed_sharding",
        format_table(
            "Ablation — range vs hashed sharding of hilbertIndex (R)",
            ["strategy", "query", "nodes", "allNodes", "maxKeys",
             "time(ms)", "results"],
            rows,
        ),
    )
    bench_once(benchmark, lambda: hashed_deployment.execute(big_queries()[0]))


def test_hashed_broadcasts_range_queries(hashed_deployment, benchmark):
    # Range predicates cannot target hashed chunks: every spatio-
    # temporal query becomes a broadcast operation.
    for q in small_queries()[:2] + big_queries()[:2]:
        result, _ = hashed_deployment.execute(q)
        assert result.stats.broadcast
    bench_once(
        benchmark, lambda: hashed_deployment.execute(small_queries()[0])
    )


def test_results_still_correct(hashed_deployment, cache, benchmark):
    range_dep = cache.deployment("hil", "R")
    for q in big_queries():
        assert len(hashed_deployment.execute(q)[0]) == len(
            range_dep.execute(q)[0]
        )
    bench_once(
        benchmark, lambda: hashed_deployment.execute(big_queries()[3])
    )


def test_range_targets_fewer_nodes_for_small_queries(
    hashed_deployment, cache, benchmark
):
    range_dep = cache.deployment("hil", "R")
    q = small_queries()[3]
    ranged = measure_query(range_dep, q, runs=1, average_last=1)
    hashed = measure_query(hashed_deployment, q, runs=1, average_last=1)
    assert ranged.nodes < hashed.nodes
    bench_once(benchmark, lambda: range_dep.execute(q))
