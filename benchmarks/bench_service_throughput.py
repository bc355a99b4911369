"""Service throughput: threaded-vs-process A/B, parity, and overload.

Standalone script (not part of the pytest bench suite): deploys the
paper's hil approach on a 12-shard cluster, renders the Q^b workload
once, then drives the query service with a closed-loop load generator
across both executor backends (thread pool vs per-shard worker
processes) at several worker counts.  Per-shard service time is
simulated from the deterministic cost model
(``simulated_latency_scale`` restores paper-scale shard times, which
the scaled-down in-process dataset otherwise compresses to
microseconds), so serial execution costs the *sum* of shard times and
parallel scatter-gather the *max* — the wall-clock shape the paper's
mongos deployment exhibits.  Worker processes answer repeated
subqueries from their epoch-validated result caches without redoing
(or re-billing) the modelled shard work, which is where the process
backend breaks the threaded plateau on this box; ``cpuCount`` is
recorded so the regime is explicit.

Writes ``BENCH_service.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py --quick

``--quick`` runs the parity gates only (CI mode): per-document
byte-identical results and counter frames between the threaded and
process backends.  The full run additionally asserts the acceptance
criteria: the process backend at 8 workers achieves at least 2x the
threaded backend's throughput at 8 workers (and at least 8x serial)
on identical result sets, and the open-loop overload run holds p99
under the admission deadline.
"""

import argparse
import json
import os
import pathlib
import pickle
import sys

from repro.cluster.cluster import ClusterTopology
from repro.core.approaches import COLLECTION, deploy_approach, make_approach
from repro.datagen import FleetConfig, FleetGenerator
from repro.service import (
    LoadGenerator,
    QueryService,
    ServiceConfig,
    render_workload,
)
from repro.service.wire import WIRE_PROTOCOL
from repro.workloads.queries import big_queries, randomized_queries

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_service.json"

LATENCY_SCALE = 20.0
WORKER_COUNTS = (1, 4, 8, 16)
OVERLOAD_DEADLINE_MS = 250.0
#: Worker *processes* for the ShardWorkerPool (the workers axis above
#: is client/service concurrency, identical for both backends).  The
#: 12 shards are grouped into this many hosts: on the single-core
#: benchmark box more processes only add scheduler churn once the
#: result caches are warm — two groups measured fastest and most
#: stable.  Recorded per-row as ``workerProcesses``.
PROCESS_WORKER_GROUPS = 2


def build_deployment(n_docs: int):
    """The paper's default: hil on 12 shards."""
    docs = FleetGenerator(FleetConfig(n_vehicles=40)).generate_list(n_docs)
    return deploy_approach(
        make_approach("hil"),
        docs,
        topology=ClusterTopology(n_shards=12),
        chunk_max_bytes=32 * 1024,
    )


def service_config(backend: str, workers: int, **overrides) -> ServiceConfig:
    defaults = dict(
        executor=backend,
        max_workers=workers,
        max_concurrent_queries=workers,
        max_queue_depth=workers * 4,
        simulate_shard_latency=True,
        simulated_latency_scale=LATENCY_SCALE,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def run_config(deployment, workload, backend, workers, total_queries,
               parallel=True):
    """One (backend, workers) point: closed loop at `workers` clients.

    Each backend gets one warmup pass over the workload before the
    measured run, so process-backend cold start (worker spawn plus the
    initial replica sync) is paid outside the window for both sides
    symmetrically.
    """
    overrides = {"parallel_scatter_gather": parallel}
    if backend == "process":
        overrides["executor_workers"] = PROCESS_WORKER_GROUPS
    config = service_config(backend, workers, **overrides)
    with QueryService(deployment.cluster, config) as service:
        generator = LoadGenerator(service, COLLECTION, workload)
        generator.run_closed_loop(
            clients=workers, total_queries=2 * len(workload)
        )
        report = generator.run_closed_loop(
            clients=workers, total_queries=total_queries
        )
        executor_counters = service.metrics_snapshot().as_dict()["executor"]
    row = report.as_dict()
    row["workers"] = workers
    row["parallelScatterGather"] = parallel
    row["executorCounters"] = executor_counters
    if backend == "process":
        row["workerProcesses"] = PROCESS_WORKER_GROUPS
    return row


def canonical_result(result):
    """Per-document canonical pickles plus the counter frames.

    Whole-list pickles differ across backends purely through pickler
    memoization (the parent's documents share interned constants; a
    worker's replica shares per-shard copies), so parity is defined on
    each document's own encoding — byte-identical — and on the
    deterministic execution counters.
    """
    return (
        [pickle.dumps(d, protocol=WIRE_PROTOCOL) for d in result.documents],
        result.stats.as_dict(),
    )


def check_parity(deployment, workload):
    """Byte-identical documents and counters: library vs both backends."""
    reference = [
        canonical_result(deployment.cluster.find(COLLECTION, q))
        for q in workload
    ]
    for backend in ("thread", "process"):
        config = service_config(
            backend, 8, simulate_shard_latency=False
        )
        with QueryService(deployment.cluster, config) as service:
            # Twice: the second pass serves from the worker result
            # cache on the process backend, which must be as
            # byte-identical as the first.
            for _ in range(2):
                served = [
                    canonical_result(service.find(COLLECTION, q))
                    for q in workload
                ]
                assert served == reference, (
                    "%s backend broke result/counter parity" % backend
                )
    return True


def run_overload(deployment, workload, quick: bool):
    """Open-loop overload on the process backend.

    The offered rate is set well above capacity, so admission control
    must reject or expire the excess; the acceptance bar is that the
    queries that *do* complete hold p99 under the admission deadline —
    deadline abandonment really abandons, instead of letting stragglers
    stretch the tail.
    """
    config = service_config(
        "process",
        8,
        default_timeout_ms=OVERLOAD_DEADLINE_MS,
        executor_workers=PROCESS_WORKER_GROUPS,
    )
    with QueryService(deployment.cluster, config) as service:
        generator = LoadGenerator(service, COLLECTION, workload)
        generator.run_closed_loop(clients=8, total_queries=2 * len(workload))
        report = generator.run_open_loop(
            target_qps=600.0,
            duration_s=2.0 if quick else 5.0,
            clients=16,
        )
    row = report.as_dict()
    row["admissionDeadlineMs"] = OVERLOAD_DEADLINE_MS
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="parity gates only, small dataset (CI mode)",
    )
    parser.add_argument(
        "--workload",
        choices=("qb", "randomized"),
        default="qb",
        help=(
            "qb replays the paper's four fixed Q^b queries; randomized "
            "replays a seeded jittered Q^s/Q^b stream where no literal "
            "repeats — planOutcomes in the report separates shapeHits "
            "(bound) from misses (analyzed)"
        ),
    )
    parser.add_argument(
        "--workload-seed",
        type=int,
        default=3,
        help="seed for the randomized workload stream",
    )
    args = parser.parse_args(argv)

    n_docs = 2_000 if args.quick else 6_000
    total_queries = 48 if args.quick else 160

    print("deploying hil on 12 shards (%d docs)..." % n_docs)
    deployment = build_deployment(n_docs)
    if args.workload == "randomized":
        queries = randomized_queries(
            24 if args.quick else 48, seed=args.workload_seed
        )
    else:
        queries = big_queries()
    workload = render_workload(deployment.approach, queries)

    print("checking result/counter parity (library vs thread vs process)...")
    parity = check_parity(deployment, workload)
    print("parity OK (per-document byte-identical, counters equal)")

    payload = {
        "benchmark": "service_throughput",
        "quick": args.quick,
        "cpuCount": os.cpu_count(),
        "nDocs": n_docs,
        "nShards": 12,
        "workload": (
            "Qb"
            if args.workload == "qb"
            else "randomized(seed=%d)" % args.workload_seed
        ),
        "nWorkloadQueries": len(workload),
        "latencyScale": LATENCY_SCALE,
        "resultParity": parity,
        "runs": [],
    }

    if args.quick:
        OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print("wrote %s (quick: parity only)" % OUT_PATH)
        return 0

    rows = []
    serial = run_config(
        deployment,
        workload,
        backend="thread",
        workers=1,
        total_queries=total_queries,
        parallel=False,
    )
    serial["label"] = "serial"
    rows.append(serial)
    print(
        "serial: %.1f q/s  p95=%.1fms"
        % (serial["achievedQps"], serial["p95LatencyMs"])
    )

    for workers in WORKER_COUNTS:
        for backend in ("thread", "process"):
            row = run_config(
                deployment,
                workload,
                backend=backend,
                workers=workers,
                total_queries=total_queries,
            )
            row["label"] = "%s-%dw" % (backend, workers)
            rows.append(row)
            print(
                "%s: %.1f q/s  p95=%.1fms  remoteCacheHits=%d  "
                "planOutcomes=%s"
                % (
                    row["label"],
                    row["achievedQps"],
                    row["p95LatencyMs"],
                    row["executorCounters"]["remoteCacheHits"],
                    row["planOutcomes"],
                )
            )

    print("open-loop overload (process backend, 8 workers)...")
    overload = run_overload(deployment, workload, quick=False)
    print(
        "overload: offered=%d completed=%d rejected=%d timedOut=%d "
        "p99=%.1fms queueWait=%.1fms"
        % (
            overload["offered"],
            overload["completed"],
            overload["rejected"],
            overload["timedOut"],
            overload["p99LatencyMs"],
            overload["meanQueueWaitMs"],
        )
    )

    by_label = {r["label"]: r for r in rows}
    thread8 = by_label["thread-8w"]["achievedQps"]
    process8 = by_label["process-8w"]["achievedQps"]
    ab_speedup = process8 / thread8
    serial_speedup = process8 / serial["achievedQps"]
    print(
        "process-8w vs thread-8w: %.2fx   vs serial: %.2fx"
        % (ab_speedup, serial_speedup)
    )

    payload["runs"] = rows
    payload["openLoopOverload"] = overload
    payload["speedupProcess8wOverThread8w"] = round(ab_speedup, 2)
    payload["speedupProcess8wOverSerial"] = round(serial_speedup, 2)
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print("wrote %s" % OUT_PATH)

    failures = []
    if ab_speedup < 2.0:
        failures.append(
            "process-8w speedup %.2fx < 2x over thread-8w" % ab_speedup
        )
    if serial_speedup < 8.0:
        failures.append(
            "process-8w speedup %.2fx < 8x over serial" % serial_speedup
        )
    if overload["p99LatencyMs"] > OVERLOAD_DEADLINE_MS:
        failures.append(
            "overload p99 %.1fms exceeds the %.0fms admission deadline"
            % (overload["p99LatencyMs"], OVERLOAD_DEADLINE_MS)
        )
    for failure in failures:
        print("FAIL: %s" % failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
