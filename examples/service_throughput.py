"""Serving queries concurrently through the in-process mongos frontend.

Deploys the paper's *hil* approach, wraps the cluster in a
:class:`~repro.service.QueryService`, and contrasts sequential
fan-out with parallel scatter-gather under a closed-loop load of the
paper's Q^b queries — printing achieved q/s and p50/p95/p99 latency
for each mode, plus how the service planned the queries.

Per-shard service time is simulated from the cost model so the
wall-clock shape matches a real deployment: serial execution pays the
*sum* of per-shard times, parallel scatter-gather only the *max*.

Run:  PYTHONPATH=src python examples/service_throughput.py
"""

from repro.cluster.cluster import ClusterTopology
from repro.core.approaches import COLLECTION, deploy_approach, make_approach
from repro.datagen import FleetConfig, FleetGenerator
from repro.service import (
    LoadGenerator,
    QueryService,
    ServiceConfig,
    render_workload,
)
from repro.workloads.queries import big_queries


def run_mode(cluster, workload, label, **overrides) -> None:
    """One load-generation pass; prints a single result line."""
    config = ServiceConfig(
        simulate_shard_latency=True,
        simulated_latency_scale=20.0,
        **overrides,
    )
    clients = config.max_workers
    with QueryService(cluster, config) as service:
        report = LoadGenerator(service, COLLECTION, workload).run_closed_loop(
            clients=clients, total_queries=40
        )
    outcomes = report.plan_outcomes
    print(
        "  %-22s %6.1f q/s   p50=%5.1fms  p95=%5.1fms  p99=%5.1fms"
        "   planned: %d bound, %d analyzed"
        % (
            label,
            report.achieved_qps,
            report.p50_latency_ms,
            report.p95_latency_ms,
            report.p99_latency_ms,
            outcomes["shapeHits"],
            outcomes["misses"],
        )
    )


def main() -> None:
    print("Generating fleet traces and deploying hil on 8 shards ...")
    documents = FleetGenerator(FleetConfig(n_vehicles=40)).generate_list(2000)
    deployment = deploy_approach(
        make_approach("hil"),
        documents,
        topology=ClusterTopology(n_shards=8),
        chunk_max_bytes=16 * 1024,
    )
    workload = render_workload(deployment.approach, big_queries())

    print("Replaying the paper's Q^b workload (closed loop):")
    run_mode(
        deployment.cluster,
        workload,
        "sequential, 1 client",
        max_workers=1,
        parallel_scatter_gather=False,
    )
    run_mode(
        deployment.cluster,
        workload,
        "parallel, 4 clients",
        max_workers=4,
    )
    run_mode(
        deployment.cluster,
        workload,
        "parallel, 8 clients",
        max_workers=8,
    )
    print(
        "\nParallel scatter-gather overlaps per-shard work across"
        " shards and in-flight queries; every query binds its values"
        " into the parameterized shape instead of being re-analyzed."
    )


if __name__ == "__main__":
    main()
