"""Serving queries concurrently through the in-process mongos frontend.

Deploys the paper's *hil* approach, wraps the cluster in a
:class:`~repro.service.QueryService`, and serves a randomized
Q^s/Q^b-style stream closed-loop — at 1, 2 and 4 clients on the
thread executor and at 2 clients on the worker-process executor —
printing achieved q/s and p50/p95/p99 latency.

Every number is real CPU work on this machine: no literal repeats
inside a measured pass, so nothing is answered from a result cache.

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
from repro.workloads.queries import randomized_queries

N_QUERIES = 400


def run_mode(deployment, workload, label, clients, **overrides) -> None:
    """One load-generation pass; prints a single result line."""
    warm_up = render_workload(
        deployment.approach, randomized_queries(20, seed=1)
    )
    with QueryService(deployment.cluster, ServiceConfig(**overrides)) as service:
        # Worker forks (process executor) stay outside the measured
        # pass.
        LoadGenerator(service, COLLECTION, warm_up).run_closed_loop(
            clients=clients, total_queries=len(warm_up)
        )
        service.metrics.reset()
        report = LoadGenerator(service, COLLECTION, workload).run_closed_loop(
            clients=clients, total_queries=len(workload)
        )
    print(
        "  %-22s %7.1f q/s   p50=%5.2fms  p95=%5.2fms  p99=%5.2fms"
        % (
            label,
            report.achieved_qps,
            report.p50_latency_ms,
            report.p95_latency_ms,
            report.p99_latency_ms,
        )
    )


def main() -> None:
    print("Generating fleet traces and deploying hil on 8 shards ...")
    documents = FleetGenerator(FleetConfig(n_vehicles=40)).generate_list(6000)
    deployment = deploy_approach(
        make_approach("hil"),
        documents,
        topology=ClusterTopology(n_shards=8),
        chunk_max_bytes=16 * 1024,
    )
    workload = render_workload(
        deployment.approach, randomized_queries(N_QUERIES, seed=2)
    )
    # One library-path pass first, so the first row below does not pay
    # the process's one-time warm-up (nothing is memoized between
    # queries, so every row after it starts from the same state).
    for query in workload:
        deployment.cluster.find(COLLECTION, query)
    print("Serving %d randomized queries per row (closed loop):" % N_QUERIES)
    for clients in (1, 2, 4):
        run_mode(
            deployment,
            workload,
            "thread, %d client%s" % (clients, "" if clients == 1 else "s"),
            clients,
            executor="thread",
        )
    run_mode(
        deployment,
        workload,
        "process, 2 clients",
        2,
        executor="process",
        executor_workers=2,
    )
    print(
        "\nThe thread rows share one interpreter lock (the GIL): more"
        " clients add latency, not throughput.  The process row runs each"
        " whole read (parsing, routing, shard matching) on one worker"
        " outside it, and pays a pipe round trip per read and the parent's"
        " copy of each result to do so."
    )


if __name__ == "__main__":
    main()
