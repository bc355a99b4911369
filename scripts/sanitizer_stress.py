#!/usr/bin/env python
"""Closed-loop stress under the runtime lock-order sanitizer.

Drives a :class:`LoadGenerator` (plus a writer mix) against a
:class:`QueryService` whose locks are instrumented, then
cross-validates the observed acquisition graph against the static
lock-order graph of ``src``.  Exits non-zero when the sanitizer
records any violation or the two graphs disagree — this is the CI
job that keeps the analyzer honest against running code.

Usage::

    PYTHONPATH=src python scripts/sanitizer_stress.py [--clients 8]
        [--queries 400] [--shards 8] [--docs 2000]
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.lockgraph import build_lock_order_graph  # noqa: E402
from repro.cluster.cluster import (  # noqa: E402
    ClusterTopology,
    ShardedCluster,
)
from repro.sanitizer import (  # noqa: E402
    INSTRUMENTED_KEYS,
    LockOrderSanitizer,
    cross_validate,
    instrument_query_service,
)
from repro.service.loadgen import LoadGenerator  # noqa: E402
from repro.service.service import QueryService, ServiceConfig  # noqa: E402


def build_cluster(n_shards: int, n_docs: int) -> ShardedCluster:
    """A seeded cluster sharded on ("k", 1)."""
    cluster = ShardedCluster(
        topology=ClusterTopology(n_shards=n_shards),
        chunk_max_bytes=4 * 1024,
    )
    cluster.shard_collection("t", [("k", 1)])
    rng = random.Random(13)
    cluster.insert_many(
        "t",
        [
            {
                "_id": i,
                "k": rng.randrange(0, 100_000),
                "group": i % 16,
                "counter": 0,
            }
            for i in range(n_docs)
        ],
    )
    return cluster


def build_workload(n_queries: int) -> list:
    """Mixed targeted and broadcast range reads."""
    rng = random.Random(17)
    workload = []
    for _ in range(n_queries):
        lo = rng.randrange(0, 90_000)
        workload.append({"k": {"$gte": lo, "$lt": lo + 5_000}})
    workload.append({})  # broadcast: fans out to every shard
    return workload


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--queries", type=int, default=400)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--docs", type=int, default=2_000)
    args = parser.parse_args(argv)

    sanitizer = LockOrderSanitizer()
    cluster = build_cluster(args.shards, args.docs)
    with QueryService(
        cluster, ServiceConfig(max_workers=args.clients)
    ) as service:
        instrument_query_service(service, sanitizer)
        generator = LoadGenerator(
            service, "t", build_workload(n_queries=32)
        )
        report = generator.run_closed_loop(
            clients=args.clients, total_queries=args.queries
        )
        # Writer mix: each write holds the service lock exclusively.
        service.insert_many(
            "t",
            [
                {"_id": args.docs + i, "k": i, "group": 0}
                for i in range(50)
            ],
        )
        service.update_many(
            "t", {"group": 1}, {"$inc": {"counter": 1}}
        )
        service.delete_many("t", {"group": 2})

    print(
        "closed loop: %d offered, %d completed, %d rejected, "
        "%d timed out, %d errors"
        % (
            report.offered,
            report.completed,
            report.rejected,
            report.timed_out,
            report.errors,
        )
    )
    print(
        "sanitizer: %d edge(s) observed, %d violation(s)"
        % (len(sanitizer.observed_edges()), len(sanitizer.violations()))
    )

    failed = False
    for violation in sanitizer.violations():
        failed = True
        print(
            "VIOLATION [%s] %s (thread %s)"
            % (violation.kind, violation.detail, violation.thread)
        )
    if not sanitizer.observed_edges():
        # An empty observed graph means the workload never nested two
        # instrumented acquisitions — the cross-validation below would
        # pass vacuously, so treat it as a harness failure instead.
        failed = True
        print("HARNESS ERROR: workload produced no observed lock edges")

    static_graph = build_lock_order_graph(["src"], REPO_ROOT)
    validation = cross_validate(
        static_graph, sanitizer, INSTRUMENTED_KEYS
    )
    print(validation.render())
    if not validation.ok:
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
