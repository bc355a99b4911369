"""Serving-side metrics: latency percentiles, queue wait, throughput.

The cluster layer's :class:`~repro.cluster.metrics.ClusterQueryStats`
describes *one* query's execution; this module describes the *service*
— how a stream of queries behaves under concurrency: per-query latency
distribution (p50/p95/p99), time spent waiting for an execution slot,
completed/rejected/timed-out counts, and sustained throughput.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List

__all__ = ["ServiceMetrics", "MetricsSnapshot", "percentile"]

#: Most recent query latencies the percentiles are read from; counts,
#: sums and maxima are exact over the whole run, so a long-running
#: service holds a bounded number of samples.
SAMPLE_WINDOW = 8192


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a value list (0.0 when empty)."""
    if not values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


@dataclass(frozen=True)
class MetricsSnapshot:
    """A point-in-time summary of the service's behaviour."""

    completed: int
    rejected: int
    timed_out: int
    writes: int
    mean_latency_ms: float
    p50_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float
    max_latency_ms: float
    mean_queue_wait_ms: float
    max_queue_wait_ms: float
    throughput_qps: float
    #: Cumulative wall-clock per pipeline stage (plan/scan/filter/
    #: merge) across every recorded query.
    stage_totals_ms: Dict[str, float] = field(default_factory=dict)
    #: Hit/miss counters keyed by cache name; the service reports two
    #: all-zero entries (``targeting``, ``rangeDecomposition``).
    caches: Dict[str, Dict] = field(default_factory=dict)
    #: Process-executor counters: subqueries shipped to shard workers
    #: and worker forks ("replicaSyncs"; "remoteCacheHits" is always 0).
    executor: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The snapshot as a JSON-ready mapping."""
        return {
            "completed": self.completed,
            "rejected": self.rejected,
            "timedOut": self.timed_out,
            "writes": self.writes,
            "meanLatencyMs": round(self.mean_latency_ms, 3),
            "p50LatencyMs": round(self.p50_latency_ms, 3),
            "p95LatencyMs": round(self.p95_latency_ms, 3),
            "p99LatencyMs": round(self.p99_latency_ms, 3),
            "maxLatencyMs": round(self.max_latency_ms, 3),
            "meanQueueWaitMs": round(self.mean_queue_wait_ms, 3),
            "maxQueueWaitMs": round(self.max_queue_wait_ms, 3),
            "throughputQps": round(self.throughput_qps, 2),
            "stages": {
                stage: round(ms, 3)
                for stage, ms in sorted(self.stage_totals_ms.items())
            },
            "caches": self.caches,
            "executor": self.executor,
        }


class ServiceMetrics:
    """Thread-safe recorder for the serving path.

    Queries record their end-to-end latency and queue wait on
    completion; admission rejections and deadline expiries bump
    counters.  Throughput is measured over the span between the first
    and last recorded completion.  Means and maxima are running values
    over every recorded query; the latency percentiles describe the
    last :data:`SAMPLE_WINDOW` of them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latencies_ms: Deque[float] = deque(maxlen=SAMPLE_WINDOW)
        self._latency_sum_ms = 0.0
        self._latency_max_ms = 0.0
        self._queue_wait_sum_ms = 0.0
        self._queue_wait_max_ms = 0.0
        self._stage_totals_ms: Dict[str, float] = {}
        self.completed = 0
        self.rejected = 0
        self.timed_out = 0
        self.writes = 0
        self.remote_subqueries = 0
        self.worker_forks = 0
        self._first_at: float | None = None
        self._last_at: float | None = None

    def record_query(
        self,
        latency_ms: float,
        queue_wait_ms: float,
        stage_times: Dict[str, float] | None = None,
    ) -> None:
        """Record one successfully served read query.

        ``stage_times`` carries the per-stage wall-clock breakdown
        (plan/scan/filter/merge) the execution layer measured; it
        accumulates into the snapshot's stage totals.
        """
        now = time.perf_counter()
        with self._lock:
            self._latencies_ms.append(latency_ms)
            self._latency_sum_ms += latency_ms
            self._latency_max_ms = max(self._latency_max_ms, latency_ms)
            self._queue_wait_sum_ms += queue_wait_ms
            self._queue_wait_max_ms = max(
                self._queue_wait_max_ms, queue_wait_ms
            )
            if stage_times:
                for stage, ms in stage_times.items():
                    self._stage_totals_ms[stage] = (
                        self._stage_totals_ms.get(stage, 0.0) + ms
                    )
            self.completed += 1
            if self._first_at is None:
                self._first_at = now
            self._last_at = now

    def record_write(self) -> None:
        """Record one completed write operation."""
        with self._lock:
            self.writes += 1

    def record_remote(self) -> None:
        """Record one read shipped to a shard worker process."""
        with self._lock:
            self.remote_subqueries += 1

    def record_forks(self, forks: int) -> None:
        """Record ``forks`` worker processes forked afresh."""
        with self._lock:
            self.worker_forks += forks

    def record_rejection(self) -> None:
        """Record an admission-control rejection (backpressure)."""
        with self._lock:
            self.rejected += 1

    def record_timeout(self) -> None:
        """Record a query that exceeded its deadline."""
        with self._lock:
            self.timed_out += 1

    def reset(self) -> None:
        """Forget everything recorded so far."""
        with self._lock:
            self._latencies_ms.clear()
            self._latency_sum_ms = 0.0
            self._latency_max_ms = 0.0
            self._queue_wait_sum_ms = 0.0
            self._queue_wait_max_ms = 0.0
            self._stage_totals_ms.clear()
            self.completed = 0
            self.rejected = 0
            self.timed_out = 0
            self.writes = 0
            self.remote_subqueries = 0
            self.worker_forks = 0
            self._first_at = None
            self._last_at = None

    def snapshot(
        self, caches: Dict[str, Dict] | None = None
    ) -> MetricsSnapshot:
        """Summarize everything recorded so far.

        ``caches`` takes per-cache counter mappings to surface in the
        snapshot.
        """
        with self._lock:
            # Sorted once here; percentile()'s own sort of an ordered
            # list is a single linear pass.
            lat = sorted(self._latencies_ms)
            completed = self.completed
            stages = dict(self._stage_totals_ms)
            span = 0.0
            if self._first_at is not None and self._last_at is not None:
                span = self._last_at - self._first_at
            qps = 0.0
            if span > 0 and completed > 1:
                # First completion anchors the window, so it is not an
                # arrival *within* the window.
                qps = (completed - 1) / span
            return MetricsSnapshot(
                completed=completed,
                rejected=self.rejected,
                timed_out=self.timed_out,
                writes=self.writes,
                mean_latency_ms=(
                    self._latency_sum_ms / completed if completed else 0.0
                ),
                p50_latency_ms=percentile(lat, 0.50),
                p95_latency_ms=percentile(lat, 0.95),
                p99_latency_ms=percentile(lat, 0.99),
                max_latency_ms=self._latency_max_ms,
                mean_queue_wait_ms=(
                    self._queue_wait_sum_ms / completed if completed else 0.0
                ),
                max_queue_wait_ms=self._queue_wait_max_ms,
                throughput_qps=qps,
                stage_totals_ms=stages,
                caches=dict(caches or {}),
                executor={
                    "remoteSubqueries": self.remote_subqueries,
                    # No worker caches results; the key stays for the
                    # benchmark harness until ROADMAP item 1(d).
                    "remoteCacheHits": 0,
                    # Worker forks: a fork is the replica sync.  The
                    # benchmark harness reads the key by this name.
                    "replicaSyncs": self.worker_forks,
                },
            )
