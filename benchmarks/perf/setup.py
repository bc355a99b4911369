"""Set-up: scales, the deployment each workload runs on, and warm-up.

Everything here is timed into ``setup_s``: generating the data set,
deploying it (bulk load, index build, chunk balancing), starting the
service, spawning and syncing shard workers, and the warm-up pass.
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cluster.cluster import ClusterTopology
from repro.core.approaches import COLLECTION, Deployment, deploy_approach, make_approach
from repro.docstore.lsm import DurabilityConfig
from repro.service import QueryService, ServiceConfig

from benchmarks.perf import streams

WORKLOADS = ("hil_scan", "hil_point", "proc_mixed", "ingest_mixed")
N_SHARDS = 12
N_CLIENTS = 2
WARMUP_QUERIES = 40


@dataclass(frozen=True)
class Scale:
    """Data-set sizes and operation rates of one benchmark scale.

    ``ops_per_second`` is the frozen operation count per second of
    ``--seconds``: chosen once so the timed window lasts about
    ``--seconds`` on the commit that introduced the benchmark, then
    left alone so every commit executes the identical stream.
    """

    name: str
    docs: int
    ingest_seed_docs: int
    chunk_max_bytes: int
    #: hil_point window; widened from the issue's 6-48 h (probed at
    #: 100 000 documents) so half the data still yields ~3 results.
    point_window_hours: Tuple[float, float]
    ops_per_second: dict
    paced_batch_docs: int
    paced_interval_s: float
    #: Share of ``--seconds`` the paced phase lasts.
    paced_share: float
    burst_batch_docs: int
    burst_docs_per_second: int
    #: Result-count guards (median per query); None disables them.
    scan_min_median: Optional[int]
    point_median_range: Optional[Tuple[int, int]]


#: The largest scale the driver's 3 420 s cap allows over 92 runs.
FULL = Scale(
    name="full",
    docs=50_000,
    ingest_seed_docs=20_000,
    chunk_max_bytes=256 * 1024,
    point_window_hours=(12.0, 96.0),
    ops_per_second={
        "hil_scan": 66,
        "hil_point": 510,
        "proc_mixed": 270,
        "ingest_mixed": 510,
    },
    paced_batch_docs=250,
    paced_interval_s=0.15,
    paced_share=0.55,
    burst_batch_docs=500,
    burst_docs_per_second=600,
    scan_min_median=100,
    point_median_range=(1, 20),
)

#: test_perf_harness.py's scale: seconds, not minutes; guards off
#: because 2 000 documents cannot fill the boxes.
SMOKE = Scale(
    name="smoke",
    docs=2_000,
    ingest_seed_docs=1_000,
    chunk_max_bytes=32 * 1024,
    point_window_hours=(12.0, 96.0),
    ops_per_second=dict.fromkeys(WORKLOADS, 60),
    paced_batch_docs=50,
    paced_interval_s=0.05,
    paced_share=0.3,
    burst_batch_docs=100,
    burst_docs_per_second=500,
    scan_min_median=None,
    point_median_range=None,
)


def operation_count(scale: Scale, workload: str, seconds: int) -> int:
    """Queries in the timed window (the reader's stream for ingest_mixed)."""
    return scale.ops_per_second[workload] * seconds


def query_stream(scale: Scale, workload: str, seed: int, n: int) -> list:
    """The seeded query stream of a workload."""
    if workload == "hil_scan":
        return streams.scan_stream(seed, n)
    if workload == "proc_mixed":
        return streams.mixed_stream(seed, n, scale.point_window_hours)
    window = scale.point_window_hours
    if workload == "ingest_mixed":
        # Fewer documents deployed: longer windows, same result counts.
        stretch = scale.docs / scale.ingest_seed_docs
        window = (window[0] * stretch, window[1] * stretch)
    return streams.point_stream(seed, n, window)


def service_config(workload: str) -> ServiceConfig:
    """Shipped defaults except the executor backend and its worker count."""
    if workload == "proc_mixed":
        return ServiceConfig(executor="process", executor_workers=N_CLIENTS)
    return ServiceConfig(executor="thread")


@dataclass
class Bench:
    """A deployed, warmed-up system under test."""

    scale: Scale
    workload: str
    documents: List[dict]
    deployment: Deployment
    service: QueryService
    directory: Optional[str]
    #: (start, end) of the first query after the service was built:
    #: worker spawn + first replica sync on the process backend.
    first_query_ns: Tuple[int, int] = (0, 0)

    @property
    def cluster(self):
        return self.deployment.cluster

    @property
    def approach(self):
        return self.deployment.approach

    def find(self, query):
        """Render and serve one query through the public API."""
        rendered, _ = self.approach.render_query(query)
        return self.service.find(COLLECTION, rendered)

    def close(self) -> None:
        """Stop workers, release engines, delete the durable directory."""
        self.service.shutdown()
        self.cluster.close()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)


def build(scale: Scale, workload: str, seed: int, scratch: str) -> Bench:
    """Generate, deploy, start the service and warm it up."""
    durable = workload == "ingest_mixed"
    n_docs = scale.ingest_seed_docs if durable else scale.docs
    documents = streams.dataset(n_docs)
    directory = None
    durability = None
    if durable:
        directory = os.path.join(
            scratch, "lsm-%s-%d-%d" % (workload, seed, os.getpid())
        )
        shutil.rmtree(directory, ignore_errors=True)
        durability = DurabilityConfig(directory=directory)
    deployment = deploy_approach(
        make_approach("hil"),
        documents,
        topology=ClusterTopology(n_shards=N_SHARDS),
        chunk_max_bytes=scale.chunk_max_bytes,
        durability=durability,
    )
    # The data set is long-lived: keep the collector from re-walking
    # millions of document fields in the middle of a timed window (and
    # keep forked shard workers from unsharing those pages).
    gc.collect()
    gc.freeze()
    service = QueryService(deployment.cluster, service_config(workload))
    bench = Bench(scale, workload, documents, deployment, service, directory)
    try:
        first = time.perf_counter_ns()
        # No shard-key predicate: broadcast to all twelve shards, so
        # every worker replica is synced before the window opens.
        service.find(COLLECTION, {"record_id": -1})
        bench.first_query_ns = (first, time.perf_counter_ns())
        # Warm-up draws from its own seed: the window's literals stay fresh.
        for query in query_stream(scale, workload, seed + 7919, WARMUP_QUERIES):
            bench.find(query)
    except BaseException:
        bench.close()
        raise
    return bench
