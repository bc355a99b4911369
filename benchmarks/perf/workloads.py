"""The four workloads: what each run does, in order, and what it reports.

* ``hil_scan`` — big boxes, long windows: scan, filter, copy, merge.
* ``hil_point`` — small boxes, short windows, 30 %% hot repeats: plan
  lookup, bind, targeting, locks, dispatch.
* ``proc_mixed`` — nine point queries then one scan query, through the
  process backend: the same docstore work behind pickle and pipes.
* ``ingest_mixed`` — a durable deployment written to (paced, then
  burst) while a reader queries it, then closed and recovered.

A run with ``trace=False`` times one window and reports the end-to-end
metrics.  A run with ``trace=True`` makes a single-client pass that
records spans, a concurrent pass, and the isolation pass, and reports
the per-layer metrics.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.approaches import COLLECTION
from repro.docstore.database import Database
from repro.docstore.lsm import DurabilityConfig
from repro.service import percentile

from benchmarks.perf import drive, layers, oracle, setup, streams
from benchmarks.perf.calibrate import SpeedProbe
from benchmarks.perf.drive import ReadPass
from benchmarks.perf.setup import N_CLIENTS, Bench, Scale

#: What only the write workload has; the read workloads report zero.
WRITE_ONLY = dict.fromkeys(
    (
        "lsm.flushes",
        "lsm.compactions",
        "lsm.run_bytes",
        "lsm.runs_at_end",
        "lsm.wal_segments_at_end",
        "ingest.insert_batch_p50_ms",
        "ingest.insert_batch_p95_ms",
        "ingest.docs_per_s",
        "ingest.recovery_s",
        "ingest.disk_bytes_per_user_byte",
    ),
    0.0,
)


class StreamShapeError(RuntimeError):
    """A stream's result counts drifted out of the range it exists for."""


@dataclass
class Outcome:
    """Everything one run measured."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    details: dict = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)


def peak_rss_mb() -> float:
    """High-water resident memory of this process plus live shard workers."""
    total_kb = 0
    # The speed probe is a plain subprocess, not one of these.
    pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
    for pid in pids:
        with open("/proc/%d/status" % pid, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def window_metrics(window: ReadPass) -> Dict[str, float]:
    """What a caller of the service sees over one timed window."""
    served = window.served
    n = max(1, len(served))
    return {
        "query_qps": len(served) / window.seconds,
        "query_p50_ms": _p50(window),
        "query_p95_ms": _latency_ms(window, 0.95),
        # In the layer table: 990 hil_scan samples leave ten beyond it,
        # and its spread over seeds reached 15 % on proc_mixed.
        "query_p99_ms": _latency_ms(window, 0.99),
        "keys_examined_per_query": sum(r.max_keys for r in served) / n,
        "docs_examined_per_query": sum(r.max_docs for r in served) / n,
        "nodes_per_query": sum(r.nodes for r in served) / n,
        "loadgen.host_slowdown": window.raw_seconds / window.seconds,
    }


def check_stream_shape(scale: Scale, workload: str, window: ReadPass) -> dict:
    """Median results and empty share; raise when the stream drifted."""
    counts = [r.n_results for r in window.served]
    if workload == "proc_mixed":
        # Judge the point part; its scan queries are hil_scan's.
        counts = [
            r.n_results
            for r in window.served
            if r.index % streams.MIXED_CYCLE != streams.MIXED_CYCLE - 1
        ]
    median = statistics.median(counts) if counts else 0
    shape = {
        "medianResults": median,
        "emptyShare": sum(1 for c in counts if not c) / max(1, len(counts)),
    }
    if workload == "hil_scan":
        low = scale.scan_min_median
        if low is not None and median < low:
            raise StreamShapeError(
                "hil_scan median %s results per query, below %d" % (median, low)
            )
    elif scale.point_median_range is not None:
        low, high = scale.point_median_range
        if not low <= median <= high:
            raise StreamShapeError(
                "%s median %s results per query, outside %d-%d"
                % (workload, median, low, high)
            )
    return shape


def _clock_read_ms(calls: int = 100_000) -> float:
    """Cost of the one extra clock read a traced query makes."""
    started = time.perf_counter_ns()
    for _ in range(calls):
        time.perf_counter_ns()
    return (time.perf_counter_ns() - started) / 1e6 / calls


def _latency_ms(read_pass: ReadPass, fraction: float) -> float:
    return percentile([r.latency_ms for r in read_pass.served], fraction)


def _p50(read_pass: ReadPass) -> float:
    return _latency_ms(read_pass, 0.50)


def traced_read_metrics(
    bench: Bench, queries: Sequence, probe: SpeedProbe
) -> Tuple[Dict[str, float], ReadPass, List[dict]]:
    """The single-client traced pass and the isolation pass over it."""
    before = layers.counters(bench)
    single = drive.run_readers(bench, queries, 1, trace=True)
    after = layers.counters(bench)
    single.normalise(probe)
    metrics = layers.read_layer_metrics(single.records)
    metrics.update(layers.counter_metrics(before, after, len(single.served)))
    metrics.update(layers.isolate_reads(bench, queries, single.records, 0, probe))
    # Spans are built after the pass from numbers every query records
    # anyway; all a traced query adds is one clock read between render
    # and find, too little to see against the spread between queries.
    metrics["loadgen.trace_overhead_ratio"] = 1.0 + _clock_read_ms() / _p50(single)
    metrics["loadgen.host_slowdown"] = single.raw_seconds / single.seconds
    metrics["service.worker_spawn_sync_s"] = probe.seconds(*bench.first_query_ns)
    return metrics, single, layers.query_spans(single.records)


def _check_passes(
    bench: Bench,
    queries: Sequence,
    passes: Sequence[Tuple[ReadPass, int]],
    failures: Dict[str, int],
    check_counters: bool,
) -> Tuple[int, int]:
    """Count failed and oracle-refuted queries into ``failures``.

    Returns (queries attempted, queries the oracle checked).
    """
    points = oracle.PointTable(bench.documents)
    attempted = checked = 0
    failures.setdefault("oracle_mismatch", 0)
    for read_pass, first in passes:
        attempted += len(read_pass.records)
        for kind, count in read_pass.failures().items():
            failures[kind] = failures.get(kind, 0) + count
        n, wrong = oracle.count_mismatches(
            bench, points, queries[first:], read_pass.records, first, check_counters
        )
        checked += n
        failures["oracle_mismatch"] += wrong
    return attempted, checked


def run_reads(
    scale: Scale,
    workload: str,
    seed: int,
    seconds: int,
    trace: bool,
    scratch: str,
    probe: SpeedProbe,
) -> Outcome:
    """hil_scan, hil_point and proc_mixed."""
    started = time.perf_counter_ns()
    n_ops = setup.operation_count(scale, workload, seconds)
    queries = setup.query_stream(scale, workload, seed, n_ops)
    bench = setup.build(scale, workload, seed, scratch)
    ready = time.perf_counter_ns()
    metrics: Dict[str, float] = {}
    details: dict = {"streamDigest": streams.stream_digest(queries)}
    spans: List[dict] = []
    try:
        if trace:
            prefix = n_ops // 3
            layer, single, spans = traced_read_metrics(
                bench, queries[:prefix], probe
            )
            pair = drive.run_readers(
                bench, queries[prefix : 2 * prefix], N_CLIENTS, first_index=prefix
            )
            pair.normalise(probe)
            metrics.update(layer)
            metrics["service.read_blocked_ms"] = _p50(pair) - _p50(single)
            metrics["query_p99_ms"] = _latency_ms(pair, 0.99)
            metrics["loadgen.lateness_max_ms"] = single.max_gap_ms
            batch_docs = scale.paced_batch_docs
            writes = layers.isolate_writes(
                bench,
                streams.ingest_documents(batch_docs * layers.ISOLATION_BATCHES),
                batch_docs,
                scratch,
                probe,
            )
            metrics["lsm.recover_ms_per_shard"] = writes.pop("lsm.recover_isolated_ms")
            metrics.update(writes)
            metrics.update(WRITE_ONLY)
            details["budget"] = layers.budget(spans)
            passes = [(single, 0), (pair, prefix)]
        else:
            window = drive.run_readers(bench, queries, N_CLIENTS)
            window.normalise(probe)
            metrics.update(window_metrics(window))
            details["rawWindowSeconds"] = window.raw_seconds
            passes = [(window, 0)]
        metrics["setup_s"] = probe.seconds(started, ready)
        details["rawSetupSeconds"] = (ready - started) / 1e9
        metrics["peak_rss_mb"] = peak_rss_mb()
        details["shape"] = check_stream_shape(scale, workload, passes[0][0])
        failures: Dict[str, int] = {}
        attempted, details["oracleChecked"] = _check_passes(
            bench, queries, passes, failures, check_counters=True
        )
        details["failures"] = failures
    finally:
        bench.close()
    return Outcome(metrics, attempted, sum(failures.values()), details, spans)


def _recover(directory: str) -> Tuple[Tuple[int, int], int, int, List[Tuple[int, int]]]:
    """Reopen every shard database from disk.

    Returns (interval, documents, user bytes, per-shard intervals).  A
    fresh cluster cannot re-derive the old chunk routing, so recovery
    is measured where the data lives: one ``Database`` per shard
    directory.
    """
    databases = []
    per_shard: List[Tuple[int, int]] = []
    n_docs = 0
    started = time.perf_counter_ns()
    try:
        for name in sorted(os.listdir(directory)):
            shard_started = time.perf_counter_ns()
            database = Database(
                name,
                durability=DurabilityConfig(directory=os.path.join(directory, name)),
            )
            databases.append(database)
            n_docs += len(database.collection(COLLECTION))
            per_shard.append((shard_started, time.perf_counter_ns()))
        interval = (started, time.perf_counter_ns())
        user_bytes = sum(d.collection(COLLECTION).data_size() for d in databases)
    finally:
        for database in databases:
            database.close()
    return interval, n_docs, user_bytes, per_shard


def _directory_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(directory)
        for name in names
    )


def run_ingest(
    scale: Scale, seed: int, seconds: int, trace: bool, scratch: str, probe: SpeedProbe
) -> Outcome:
    """ingest_mixed: paced writes beside a reader, burst, close, recover."""
    workload = "ingest_mixed"
    started = time.perf_counter_ns()
    n_paced = max(2, int(seconds * scale.paced_share / scale.paced_interval_s))
    n_burst = max(2, scale.burst_docs_per_second * seconds // scale.burst_batch_docs)
    paced_docs = n_paced * scale.paced_batch_docs
    incoming = streams.ingest_documents(
        paced_docs + n_burst * scale.burst_batch_docs
    )
    paced = drive.split_batches(incoming[:paced_docs], scale.paced_batch_docs)
    burst = drive.split_batches(incoming[paced_docs:], scale.burst_batch_docs)
    n_ops = setup.operation_count(scale, workload, seconds)
    queries = setup.query_stream(scale, workload, seed, n_ops)
    bench = setup.build(scale, workload, seed, scratch)
    ready = time.perf_counter_ns()
    metrics: Dict[str, float] = {}
    details: dict = {"streamDigest": streams.stream_digest(queries, incoming)}
    spans: List[dict] = []
    passes: List[Tuple[ReadPass, int]] = []
    try:
        first = 0
        if trace:
            first = n_ops // 6
            layer, quiescent, spans = traced_read_metrics(
                bench, queries[:first], probe
            )
            metrics.update(layer)
            details["budget"] = layers.budget(spans)
            passes.append((quiescent, 0))
        before = layers.counters(bench)
        engines_before = layers.engine_totals(bench)

        stop = threading.Event()
        beside: List[ReadPass] = []
        reader = threading.Thread(
            target=lambda: beside.append(
                drive.run_readers(
                    bench, queries[first:], 1, first_index=first, stop=stop
                )
            ),
            name="reader",
        )
        reader.start()
        try:
            paced_records = drive.run_writer(
                bench, paced, scale.paced_interval_s, probe
            )
        finally:
            stop.set()
            reader.join()
        window = beside[0]
        passes.append((window, first))
        burst_started = time.perf_counter_ns()
        burst_records = drive.run_writer(bench, burst)
        burst_ended = time.perf_counter_ns()

        after = layers.counters(bench)
        engines = layers.engine_totals(bench)
        window.normalise(probe)
        written = paced_records + burst_records
        lateness_ms = max((r.sent_ns - r.due_ns) / 1e6 for r in paced_records)
        for record in written:
            record.rescale(probe.factor(record.due_ns, record.done_ns))
        metrics.update(window_metrics(window))
        details["rawWindowSeconds"] = window.raw_seconds
        details["shape"] = check_stream_shape(scale, workload, window)
        if trace:
            metrics["service.read_blocked_ms"] = _p50(window) - _p50(passes[0][0])
            writes = layers.counter_metrics(before, after, len(window.served))
            metrics["cluster.chunk_splits"] = writes["cluster.chunk_splits"]
            metrics["cluster.metadata_version_bumps"] = writes[
                "cluster.metadata_version_bumps"
            ]
            isolated = layers.isolate_writes(
                bench, incoming, scale.paced_batch_docs, scratch, probe
            )
            details["isolatedRecoverMs"] = isolated.pop("lsm.recover_isolated_ms")
            metrics.update(isolated)
            spans += layers.batch_spans(written, len(spans) + 1)
        metrics["peak_rss_mb"] = peak_rss_mb()

        # No checkpoint: what the memtables hold lives only in the WAL.
        bench.service.shutdown()
        bench.cluster.close()
        disk_bytes = _directory_bytes(bench.directory)
        recovery, recovered, user_bytes, per_shard = _recover(bench.directory)
        probe.sync()

        acknowledged = sum(r.n_docs for r in written if r.acknowledged)
        expected = len(bench.documents) + acknowledged
        paced_ms = [r.latency_ms for r in paced_records]
        burst_s = probe.seconds(burst_started, burst_ended)
        metrics.update(
            {
                "setup_s": probe.seconds(started, ready),
                "ingest.insert_batch_p50_ms": percentile(paced_ms, 0.50),
                "ingest.insert_batch_p95_ms": percentile(paced_ms, 0.95),
                "ingest.docs_per_s": sum(r.n_docs for r in burst_records) / burst_s,
                "ingest.recovery_s": probe.seconds(*recovery),
                "ingest.disk_bytes_per_user_byte": disk_bytes / max(1, user_bytes),
                "lsm.flushes": engines["flushes"] - engines_before["flushes"],
                "lsm.compactions": engines["compactions"]
                - engines_before["compactions"],
                "lsm.run_bytes": engines["run_bytes"],
                "lsm.runs_at_end": engines["runs"],
                "lsm.wal_segments_at_end": engines["wal"],
                "lsm.recover_ms_per_shard": statistics.median(
                    probe.ms(*interval) for interval in per_shard
                ),
                "loadgen.lateness_max_ms": lateness_ms,
            }
        )
        details["rawSetupSeconds"] = (ready - started) / 1e9
        details["recoveredDocuments"] = recovered
        details["expectedDocuments"] = expected

        failures: Dict[str, int] = {
            "unacknowledged_batch": sum(1 for r in written if not r.acknowledged),
            "missing_after_recovery": abs(expected - recovered),
        }
        # Documents inserted since a query ran sit inside its Hilbert
        # ranges and move keysExamined, never the result: ids only.
        attempted, details["oracleChecked"] = _check_passes(
            bench, queries, passes, failures, check_counters=False
        )
        attempted += len(written)
        details["failures"] = failures
    finally:
        bench.close()
    return Outcome(metrics, attempted, sum(failures.values()), details, spans)


def run(
    scale: Scale, workload: str, seed: int, seconds: int, trace: bool, scratch: str
) -> Outcome:
    """Run one workload beside a speed probe (see ``calibrate.py``)."""
    probe = SpeedProbe()
    try:
        if workload == "ingest_mixed":
            return run_ingest(scale, seed, seconds, trace, scratch, probe)
        return run_reads(scale, workload, seed, seconds, trace, scratch, probe)
    finally:
        probe.stop()
