"""Streaming GPS ingest with concurrent query traffic.

The paper loads its data sets up front and queries them at rest; a
fleet operator's system never rests — vehicles keep emitting points
while analysts run the very Q^s/Q^b workload of Section 5.  This
scenario closes that gap: it streams :class:`~repro.datagen.vehicles`
trajectory documents into a live deployment in batches, interleaving
the paper's range queries between batches, and reports

* ingest throughput (documents per second, batch latencies),
* read latency *under* ingest, per query label, and
* the final result counts — re-runnable after the stream quiesces to
  verify ingest never served a wrong answer.

With a :class:`~repro.docstore.lsm.DurabilityConfig` mounted under the
deployment, every batch also exercises the WAL/flush/compaction write
path (measured by the ``ingest_mixed`` workload of ``benchmarks/perf``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.query import SpatioTemporalQuery
from repro.datagen import FleetConfig, FleetGenerator
from repro.workloads.queries import all_queries

__all__ = ["IngestConfig", "IngestReport", "StreamingIngest"]


@dataclass(frozen=True)
class IngestConfig:
    """Knobs of the streaming-ingest scenario."""

    #: Total documents to stream in.
    n_docs: int = 20_000
    #: Documents per insert batch (one driver round trip).
    batch_size: int = 500
    #: Queries issued between consecutive batches (round-robin over
    #: the workload).
    queries_per_batch: int = 1
    #: Vehicles in the emitting fleet.
    n_vehicles: int = 40
    seed: int = 20181001


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


@dataclass
class IngestReport:
    """What one streaming-ingest run observed."""

    docs_ingested: int = 0
    ingest_seconds: float = 0.0
    batch_seconds: List[float] = field(default_factory=list)
    #: Per-query-label read latencies (ms), measured mid-stream.
    read_latency_ms: Dict[str, List[float]] = field(default_factory=dict)
    #: Per-query-label result count from the *last* mid-stream run.
    live_counts: Dict[str, int] = field(default_factory=dict)
    #: Per-query-label result count after the stream quiesced.
    final_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def docs_per_second(self) -> float:
        """Sustained ingest throughput; 0.0 before any batch lands."""
        if self.ingest_seconds <= 0:
            return 0.0
        return self.docs_ingested / self.ingest_seconds

    def latency_summary_ms(self) -> Dict[str, Dict[str, float]]:
        """min/p50/p95/max read latency per query label."""
        out: Dict[str, Dict[str, float]] = {}
        for label, samples in self.read_latency_ms.items():
            ordered = sorted(samples)
            out[label] = {
                "min": ordered[0] if ordered else 0.0,
                "p50": _percentile(ordered, 0.50),
                "p95": _percentile(ordered, 0.95),
                "max": ordered[-1] if ordered else 0.0,
                "n": float(len(ordered)),
            }
        return out

    def as_dict(self) -> dict:
        """JSON-ready view of the report."""
        return {
            "docsIngested": self.docs_ingested,
            "ingestSeconds": round(self.ingest_seconds, 6),
            "docsPerSecond": round(self.docs_per_second, 1),
            "batches": len(self.batch_seconds),
            "readLatencyMs": {
                label: {k: round(v, 4) for k, v in row.items()}
                for label, row in self.latency_summary_ms().items()
            },
            "liveCounts": dict(self.live_counts),
            "finalCounts": dict(self.final_counts),
        }


class StreamingIngest:
    """Drives live ingest plus query traffic against one deployment.

    ``deployment`` is a :class:`repro.core.approaches.Deployment`; new
    documents go through the approach's ``transform`` (adding
    ``hilbertIndex`` and friends) exactly as the bulk loader's do, so
    mid-stream queries see them.
    """

    def __init__(
        self,
        deployment,
        config: Optional[IngestConfig] = None,
        queries: Optional[Sequence[SpatioTemporalQuery]] = None,
    ) -> None:
        self.deployment = deployment
        self.config = config or IngestConfig()
        if queries is not None:
            self.queries = list(queries)
        else:
            grouped = all_queries()
            self.queries = grouped["small"] + grouped["big"]
        if not self.queries:
            raise ValueError("streaming ingest needs at least one query")

    # -- pieces ---------------------------------------------------------------

    def _document_stream(self):
        cfg = self.config
        generator = FleetGenerator(
            FleetConfig(n_vehicles=cfg.n_vehicles, seed=cfg.seed)
        )
        transform = self.deployment.approach.transform
        for document in generator.generate(cfg.n_docs):
            yield dict(transform(document))

    def _run_query(self, query: SpatioTemporalQuery, report: IngestReport):
        start = time.perf_counter()
        result, _ = self.deployment.execute(query)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        report.read_latency_ms.setdefault(query.label, []).append(elapsed_ms)
        report.live_counts[query.label] = len(result)

    # -- the scenario ---------------------------------------------------------

    def run(self) -> IngestReport:
        """Stream everything in, interleaving queries; then re-query."""
        cfg = self.config
        cluster = self.deployment.cluster
        collection = self.deployment.collection
        report = IngestReport()
        batch: List[dict] = []
        query_cursor = 0
        for document in self._document_stream():
            batch.append(document)
            if len(batch) < cfg.batch_size:
                continue
            start = time.perf_counter()
            cluster.insert_many(collection, batch)
            elapsed = time.perf_counter() - start
            report.batch_seconds.append(elapsed)
            report.ingest_seconds += elapsed
            report.docs_ingested += len(batch)
            batch = []
            for _ in range(cfg.queries_per_batch):
                self._run_query(
                    self.queries[query_cursor % len(self.queries)], report
                )
                query_cursor += 1
        if batch:
            start = time.perf_counter()
            cluster.insert_many(collection, batch)
            report.ingest_seconds += time.perf_counter() - start
            report.batch_seconds.append(report.ingest_seconds)
            report.docs_ingested += len(batch)
        # Quiesced pass: the counts every mid-stream answer must agree
        # with (ingest finished, so live vs final can only differ by
        # documents that arrived after a query ran — re-running now
        # closes that window).
        for query in self.queries:
            result, _ = self.deployment.execute(query)
            report.final_counts[query.label] = len(result)
        return report
