"""Workload-aware partitioning — the paper's future work, end to end.

1. Load a skewed fleet into a hil cluster and apply the paper's
   count-balanced zones.
2. Take the paper's Q^b queries as a hot workload, each weighted as if
   it repeats ten times (as the adaptive-zones ablation does).
3. Re-partition with workload-aware zones and compare the straggler's
   work per query.

Run:  python examples/adaptive_partitioning.py
"""

from repro.cluster.cluster import ClusterTopology
from repro.core import deploy_approach, make_approach, measure_query
from repro.core.adaptive import WeightedQuery, configure_workload_aware_zones
from repro.core.loader import BulkLoader
from repro.datagen import FleetConfig, FleetGenerator
from repro.workloads import big_queries


def measure_workload(deployment, workload):
    total_straggler = 0
    total_nodes = 0
    for entry in workload:
        m = measure_query(deployment, entry.query, runs=1, average_last=1)
        total_straggler += m.max_docs_examined * entry.weight
        total_nodes += m.nodes
    return total_straggler, total_nodes / len(workload)


def main() -> None:
    print("Loading 8,000 traces into a 8-shard hil cluster ...")
    docs = FleetGenerator(FleetConfig(n_vehicles=60)).generate_list(8000)

    workload = [WeightedQuery(q, weight=10.0) for q in big_queries()]
    print("Workload: the %d Q^b queries, each weighted 10\n" % len(workload))

    count_zoned = deploy_approach(
        make_approach("hil"),
        docs,
        topology=ClusterTopology(n_shards=8),
        chunk_max_bytes=24 * 1024,
        use_zones=True,
        loader=BulkLoader(batch_size=2000),
    )
    straggler, nodes = measure_workload(count_zoned, workload)
    print("Count-balanced zones (the paper's $bucketAuto):")
    print("  weighted straggler docs: %.0f   avg nodes/query: %.1f\n"
          % (straggler, nodes))

    adaptive = deploy_approach(
        make_approach("hil"),
        docs,
        topology=ClusterTopology(n_shards=8),
        chunk_max_bytes=24 * 1024,
        loader=BulkLoader(batch_size=2000),
    )
    configure_workload_aware_zones(
        adaptive.cluster, adaptive.collection, workload,
        adaptive.approach.encoder,
    )
    adaptive.zones_enabled = True
    straggler_a, nodes_a = measure_workload(adaptive, workload)
    print("Workload-aware zones (expected-load balancing):")
    print("  weighted straggler docs: %.0f   avg nodes/query: %.1f\n"
          % (straggler_a, nodes_a))
    print(
        "The hot region spreads over more shards, so each hot query's\n"
        "slowest node does less work — at the cost of uneven document\n"
        "counts per shard."
    )


if __name__ == "__main__":
    main()
