"""Closed- and open-loop load generation against the query service.

The paper's methodology measures one query at a time; a serving
frontend is characterized differently — by how it behaves under an
*offered load*.  This module replays a workload (typically the paper's
Q^s/Q^b query sets rendered by an approach) against a
:class:`~repro.service.service.QueryService`:

* **closed loop** — N client threads issue queries back-to-back; the
  measured throughput is the service's capacity at that concurrency;
* **open loop** — a dispatcher submits queries at a target rate
  regardless of completions (the "millions of users" regime); when the
  service's bounded queue fills, requests are *rejected*, which is the
  admission-control behaviour under overload.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence

from repro.core.query import SpatioTemporalQuery
from repro.errors import (
    QueryTimeoutError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.service.metrics import percentile
from repro.service.service import QueryService

__all__ = ["LoadGenerator", "LoadReport", "render_workload"]


def render_workload(
    approach, queries: Sequence[SpatioTemporalQuery]
) -> List[Dict[str, Any]]:
    """Render spatio-temporal queries into raw query documents.

    Rendering (Hilbert range decomposition for hil/hil\\*) happens once
    up front, as a driver program would prepare its statements; the
    load generator then replays the documents verbatim.
    """
    return [approach.render_query(q)[0] for q in queries]


@dataclass(frozen=True)
class LoadReport:
    """The outcome of one load-generation run.

    ``mean_queue_wait_ms`` averages over every arrival that reached
    admission control — including the ones the service *rejected* or
    timed out, which record the wait they endured before failing.
    Counting only completions (as earlier revisions did) made the
    metric read near-zero exactly when the queue was refusing work,
    which is the one regime where queue wait matters.
    ``rejected_at_generator`` counts open-loop arrivals the generator
    itself dropped because every issuing thread was busy; they are
    included in ``rejected``.
    """

    mode: str
    clients: int
    duration_s: float
    offered: int
    completed: int
    rejected: int
    timed_out: int
    errors: int
    achieved_qps: float
    mean_latency_ms: float
    p50_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float
    mean_queue_wait_ms: float
    rejected_at_generator: int = 0
    executor: str = "thread"

    def as_dict(self) -> dict:
        """The report as a JSON-ready mapping."""
        return {
            "mode": self.mode,
            "clients": self.clients,
            "executorBackend": self.executor,
            "durationS": round(self.duration_s, 3),
            "offered": self.offered,
            "completed": self.completed,
            "rejected": self.rejected,
            "rejectedAtGenerator": self.rejected_at_generator,
            "timedOut": self.timed_out,
            "errors": self.errors,
            "achievedQps": round(self.achieved_qps, 2),
            "meanLatencyMs": round(self.mean_latency_ms, 3),
            "p50LatencyMs": round(self.p50_latency_ms, 3),
            "p95LatencyMs": round(self.p95_latency_ms, 3),
            "p99LatencyMs": round(self.p99_latency_ms, 3),
            "meanQueueWaitMs": round(self.mean_queue_wait_ms, 3),
        }


class _RunTally:
    """Thread-safe accumulator shared by client threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latencies_ms: List[float] = []
        self.queue_waits_ms: List[float] = []
        self.offered = 0
        self.completed = 0
        self.rejected = 0
        self.rejected_at_generator = 0
        self.timed_out = 0
        self.errors = 0


class LoadGenerator:
    """Replays a query workload against a :class:`QueryService`."""

    def __init__(
        self,
        service: QueryService,
        collection: str,
        queries: Sequence[Mapping[str, Any]],
    ) -> None:
        if not queries:
            raise ServiceError("load generation needs a non-empty workload")
        self.service = service
        self.collection = collection
        self.queries = list(queries)

    # -- shared per-query execution -------------------------------------------

    def _issue(
        self,
        index: int,
        tally: _RunTally,
        scheduled_at: float | None = None,
    ) -> None:
        """Issue one query and record its outcome.

        ``scheduled_at`` is the open-loop arrival's metronome time;
        any gap between it and the actual issue start is queue wait
        the client experienced before admission control even saw the
        request.  Rejected and timed-out requests record the wait they
        endured before failing — dropping them (as earlier revisions
        did) made ``meanQueueWaitMs`` read near-zero precisely under
        the overload it should expose.
        """
        query = self.queries[index % len(self.queries)]
        issued_at = time.perf_counter()
        handoff_ms = (
            max(0.0, issued_at - scheduled_at) * 1000.0
            if scheduled_at is not None
            else 0.0
        )

        def waited_so_far() -> float:
            return handoff_ms + (time.perf_counter() - issued_at) * 1000.0

        with tally.lock:
            tally.offered += 1
        try:
            result = self.service.find(self.collection, query)
        except ServiceOverloadedError:
            waited = waited_so_far()
            with tally.lock:
                tally.rejected += 1
                tally.queue_waits_ms.append(waited)
            return
        except QueryTimeoutError:
            waited = waited_so_far()
            with tally.lock:
                tally.timed_out += 1
                tally.queue_waits_ms.append(waited)
            return
        except Exception:
            with tally.lock:
                tally.errors += 1
            return
        with tally.lock:
            tally.completed += 1
            tally.latencies_ms.append(result.latency_ms)
            tally.queue_waits_ms.append(handoff_ms + result.queue_wait_ms)

    def _report(
        self, mode: str, clients: int, tally: _RunTally, duration_s: float
    ) -> LoadReport:
        lat = tally.latencies_ms
        return LoadReport(
            mode=mode,
            clients=clients,
            duration_s=duration_s,
            offered=tally.offered,
            completed=tally.completed,
            rejected=tally.rejected,
            timed_out=tally.timed_out,
            errors=tally.errors,
            achieved_qps=(
                tally.completed / duration_s if duration_s > 0 else 0.0
            ),
            mean_latency_ms=sum(lat) / len(lat) if lat else 0.0,
            p50_latency_ms=percentile(lat, 0.50),
            p95_latency_ms=percentile(lat, 0.95),
            p99_latency_ms=percentile(lat, 0.99),
            mean_queue_wait_ms=(
                sum(tally.queue_waits_ms) / len(tally.queue_waits_ms)
                if tally.queue_waits_ms
                else 0.0
            ),
            rejected_at_generator=tally.rejected_at_generator,
            executor=self.service.executor_backend,
        )

    # -- closed loop -----------------------------------------------------------

    def run_closed_loop(
        self, clients: int = 4, total_queries: int = 100
    ) -> LoadReport:
        """N clients issuing queries back-to-back until the budget runs out.

        Queries are dealt round-robin from the workload; each client
        issues the next one as soon as its previous one completes, so
        concurrency equals ``clients`` throughout.
        """
        if clients < 1 or total_queries < 1:
            raise ServiceError("clients and total_queries must be positive")
        tally = _RunTally()
        counter = iter(range(total_queries))
        counter_lock = threading.Lock()

        def client_loop() -> None:
            while True:
                with counter_lock:
                    index = next(counter, None)
                if index is None:
                    return
                self._issue(index, tally)

        started = time.perf_counter()
        threads = [
            threading.Thread(target=client_loop, name="loadgen-%d" % i)
            for i in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        duration = time.perf_counter() - started
        return self._report("closed", clients, tally, duration)

    # -- open loop -------------------------------------------------------------

    def run_open_loop(
        self,
        target_qps: float,
        duration_s: float,
        clients: int = 8,
    ) -> LoadReport:
        """Offer queries at a fixed rate for a fixed duration.

        Arrivals are scheduled on a metronome at ``1/target_qps``
        intervals and handed to a pool of ``clients`` issuing threads;
        when all issuers are busy, the arrival is rejected at the
        generator (a semaphore bounds the handoff, so no in-process
        backlog builds up) — open-loop load does not slow down because
        the server is slow, and overload shows up as rejections, not
        as queries issued long after their scheduled arrival.
        """
        if target_qps <= 0 or duration_s <= 0:
            raise ServiceError("target_qps and duration_s must be positive")
        tally = _RunTally()
        interval = 1.0 / target_qps
        idle_issuers = threading.Semaphore(clients)

        def issue_and_release(index: int, scheduled_at: float) -> None:
            try:
                self._issue(index, tally, scheduled_at=scheduled_at)
            finally:
                idle_issuers.release()

        started = time.perf_counter()
        deadline = started + duration_s
        with ThreadPoolExecutor(
            max_workers=clients, thread_name_prefix="loadgen-open"
        ) as pool:
            index = 0
            next_fire = started
            while True:
                now = time.perf_counter()
                if now >= deadline:
                    break
                if now < next_fire:
                    time.sleep(min(next_fire - now, 0.01))
                    continue
                if idle_issuers.acquire(blocking=False):
                    pool.submit(issue_and_release, index, next_fire)
                else:
                    # The arrival is turned away at the generator, but
                    # it still *waited* from its scheduled time until
                    # this rejection decision — record that wait so
                    # overload does not erase queue-wait evidence.
                    waited_ms = max(0.0, now - next_fire) * 1000.0
                    with tally.lock:
                        tally.offered += 1
                        tally.rejected += 1
                        tally.rejected_at_generator += 1
                        tally.queue_waits_ms.append(waited_ms)
                index += 1
                next_fire += interval
        duration = time.perf_counter() - started
        return self._report("open", clients, tally, duration)
