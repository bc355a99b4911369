"""Per-layer numbers: spans, the per-query budget, the isolation pass.

Spans are recorded from the benchmark's side of the public API only.
``query`` covers ``core.render`` (which covers ``sfc.ranges``) and
``service.find``; the inside of ``service.find`` is filled from what
the reply itself reports (queue wait and the plan/scan/filter/merge
stage times).  The isolation pass then calls each layer's public
function on the same inputs, with nothing else running.  It does so on
every workload, whether or not the layer is on that workload's path:
the counts (``service.remote_subqueries_per_query``, ``lsm.flushes``)
say whether it is.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import statistics
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence

from repro.cluster.cluster import ClusterTopology, ShardedCluster
from repro.core.approaches import COLLECTION
from repro.docstore.bson import key_bytes
from repro.docstore.lsm import DurabilityConfig, LSMEngine
from repro.docstore.lsm.codec import encode_document
from repro.docstore.lsm.wal import OP_PUT
from repro.docstore.paramplan import bind_plan, param_shape_key
from repro.docstore.planner import analyze_query
from repro.service import wire
from repro.service.plan_cache import exact_query_key, query_shape_key
from repro.sfc.ranges import covering_range_set

from benchmarks.perf.calibrate import SpeedProbe
from benchmarks.perf.drive import BatchRecord, QueryRecord
from benchmarks.perf.setup import N_SHARDS, Bench

STAGES = (
    ("service.queue_wait", None),
    ("docstore.plan", "plan"),
    ("docstore.scan", "scan"),
    ("docstore.filter", "filter"),
    ("cluster.merge", "merge"),
)
#: Queries (and write batches) the isolation pass repeats.
ISOLATION_QUERIES = 120
ISOLATION_BATCHES = 12


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# -- spans ---------------------------------------------------------------------


def _span(span_id, parent, query, name, start, end) -> dict:
    return {
        "id": span_id,
        "parent": parent,
        "query": query,
        "name": name,
        "start_ns": start,
        "end_ns": end,
    }


def query_spans(records: Iterable[QueryRecord]) -> List[dict]:
    """The span tree of every traced query, flattened."""
    spans: List[dict] = []

    def add(parent, query, name, start, end) -> int:
        spans.append(_span(len(spans) + 1, parent, query, name, start, end))
        return len(spans)

    for r in records:
        if not r.traced or r.failure is not None:
            continue
        root = add(None, r.index, "query", r.start_ns, r.end_ns)
        render = add(root, r.index, "core.render", r.start_ns, r.rendered_ns)
        add(
            render,
            r.index,
            "sfc.ranges",
            r.start_ns,
            r.start_ns + int(r.decomposition_ms * 1e6),
        )
        find = add(root, r.index, "service.find", r.rendered_ns, r.end_ns)
        cursor = r.rendered_ns
        for name, stage in STAGES:
            ms = r.queue_wait_ms if stage is None else r.stages_ms.get(stage, 0.0)
            add(find, r.index, name, cursor, cursor + int(ms * 1e6))
            cursor += int(ms * 1e6)
    return spans


def batch_spans(records: Iterable[BatchRecord], first_id: int) -> List[dict]:
    """``insert_batch`` covering ``core.transform`` and ``service.insert_many``."""
    spans: List[dict] = []
    for i, r in enumerate(records):
        root = first_id + len(spans)
        spans.append(_span(root, None, i, "insert_batch", r.due_ns, r.done_ns))
        spans.append(
            _span(root + 1, root, i, "core.transform", r.sent_ns, r.transformed_ns)
        )
        spans.append(
            _span(
                root + 2, root, i, "service.insert_many", r.transformed_ns, r.done_ns
            )
        )
    return spans


def self_times_ms(spans: Sequence[dict]) -> Dict[str, List[float]]:
    """Span duration minus its direct children, per span name."""
    child_ns: Dict[int, int] = {}
    for span in spans:
        if span["parent"] is not None:
            child_ns[span["parent"]] = (
                child_ns.get(span["parent"], 0) + span["end_ns"] - span["start_ns"]
            )
    out: Dict[str, List[float]] = {}
    for span in spans:
        own = span["end_ns"] - span["start_ns"] - child_ns.get(span["id"], 0)
        out.setdefault(span["name"], []).append(own / 1e6)
    return out


def write_spans(path: str, spans: Iterable[dict]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def budget(spans: Sequence[dict]) -> dict:
    """Median self time per layer, and whether the rows add up.

    ``service.find``'s own row is what its reported stages leave
    unexplained: result copies, targeting, locks, dispatch.  The
    isolation pass splits that row into ``cluster.find_self_ms`` and
    ``service.overhead_ms``.
    """
    own = self_times_ms(spans)
    rows = {name: _median(values) for name, values in own.items()}
    durations = [
        (s["end_ns"] - s["start_ns"]) / 1e6 for s in spans if s["name"] == "query"
    ]
    return {
        "rows_ms": rows,
        "query_span_ms": _median(durations),
        "sum_of_rows_ms": sum(rows.values()),
        "negative_self_times": sum(
            1 for values in own.values() for v in values if v < -1e-6
        ),
    }


def format_budget(table: dict) -> str:
    lines = ["per-query budget (median self time, ms)"]
    for name, ms in sorted(table["rows_ms"].items(), key=lambda kv: -kv[1]):
        share = ms / table["query_span_ms"] if table["query_span_ms"] else 0.0
        lines.append("  %-22s %9.4f  %5.1f%%" % (name, ms, share * 100.0))
    lines.append("  %-22s %9.4f" % ("sum of rows", table["sum_of_rows_ms"]))
    lines.append("  %-22s %9.4f" % ("query span", table["query_span_ms"]))
    return "\n".join(lines)


# -- metrics read off the records ----------------------------------------------


def read_layer_metrics(records: Sequence[QueryRecord]) -> Dict[str, float]:
    """Layer metrics one pass's replies carry (no isolation needed)."""
    served = [r for r in records if r.failure is None]
    traced = [r for r in served if r.traced]
    n = max(1, len(served))

    def stage(name: str) -> List[float]:
        return [r.stages_ms.get(name, 0.0) for r in served]

    total_keys = sum(r.total_keys for r in served)
    total_docs = sum(r.total_docs for r in served)
    results = sum(r.n_results for r in served)
    outcomes = [r.cache_outcome for r in served]
    return {
        "sfc.ranges_ms": _median(r.decomposition_ms for r in served),
        "sfc.ranges_per_query": sum(r.n_ranges for r in served) / n,
        "core.render_ms": _median(
            (r.rendered_ns - r.start_ns) / 1e6 - r.decomposition_ms for r in traced
        ),
        "docstore.plan_ms": _median(stage("plan")),
        "docstore.scan_ms": _median(stage("scan")),
        "docstore.filter_ms": _median(stage("filter")),
        "docstore.scan_us_per_key": 1e3 * sum(stage("scan")) / max(1, total_keys),
        "docstore.filter_us_per_doc": 1e3 * sum(stage("filter")) / max(1, total_docs),
        "docstore.seeks_per_query": sum(r.seeks for r in served) / n,
        "docstore.results_per_query": _median(r.n_results for r in served),
        "docstore.empty_result_share": sum(1 for r in served if not r.n_results) / n,
        "docstore.keys_total_per_query": total_keys / n,
        "docstore.docs_total_per_query": total_docs / n,
        "docstore.docs_examined_per_result": total_docs / max(1, results),
        "cluster.broadcast_share": sum(1 for r in served if r.broadcast) / n,
        "cluster.merge_ms": _median(stage("merge")),
        "service.find_ms": _median((r.end_ns - r.rendered_ns) / 1e6 for r in traced),
        "service.queue_wait_ms": _median(r.queue_wait_ms for r in served),
        "service.plan_exact_hit_ratio": outcomes.count("exact") / n,
        "service.plan_shape_hit_ratio": outcomes.count("shape") / n,
        "service.plan_miss_ratio": outcomes.count("miss") / n,
    }


def counters(bench: Bench) -> Dict[str, float]:
    """Cumulative cache, executor and admission counters, flattened."""
    snapshot = bench.service.metrics_snapshot()
    out = {
        "rejected": snapshot.rejected,
        "timed_out": snapshot.timed_out,
        "metadata_version": bench.cluster.metadata_version,
        "chunks": len(bench.cluster.catalog.get(COLLECTION).chunks),
    }
    for cache in ("targeting", "rangeDecomposition"):
        for key in ("hits", "misses"):
            out["%s.%s" % (cache, key)] = snapshot.caches[cache][key]
    out.update(snapshot.executor)
    return out


def counter_metrics(
    before: Dict[str, float], after: Dict[str, float], n_queries: int
) -> Dict[str, float]:
    """Hit ratios and counts over the interval between two snapshots."""
    d = {key: after[key] - before[key] for key in after}

    def ratio(hits: float, total: float) -> float:
        return hits / total if total else 0.0

    return {
        "sfc.range_cache_hit_ratio": ratio(
            d["rangeDecomposition.hits"],
            d["rangeDecomposition.hits"] + d["rangeDecomposition.misses"],
        ),
        "cluster.targeting_cache_hit_ratio": ratio(
            d["targeting.hits"], d["targeting.hits"] + d["targeting.misses"]
        ),
        "service.rejected": d["rejected"],
        "service.timed_out": d["timed_out"],
        "service.remote_subqueries_per_query": ratio(
            d["remoteSubqueries"], n_queries
        ),
        "service.worker_cache_hit_ratio": ratio(
            d["remoteCacheHits"], d["remoteSubqueries"]
        ),
        "service.replica_syncs": d["replicaSyncs"],
        "cluster.chunk_splits": d["chunks"],
        "cluster.metadata_version_bumps": d["metadata_version"],
    }


# -- isolation pass ------------------------------------------------------------


class _IsolatedQuery(NamedTuple):
    """One query's raw isolation measurements, scaled once the probe synced."""

    record: QueryRecord
    intervals: Dict[str, tuple]
    encode: List[tuple]
    decode: List[tuple]
    wire_bytes: int
    message_bytes: int
    stages_ms: float


def _timed(fn: Callable, *args, **kwargs):
    """(result, (start_ns, end_ns)) of one call."""
    started = time.perf_counter_ns()
    result = fn(*args, **kwargs)
    return result, (started, time.perf_counter_ns())


def isolate_reads(
    bench: Bench,
    queries: Sequence,
    records: Sequence[QueryRecord],
    first_index: int,
    probe: SpeedProbe,
) -> Dict[str, float]:
    """Time each read-side layer's public function on the traced queries.

    ``records`` are the traced pass's (normalised) records of the same
    queries (``queries[0]`` has index ``first_index``);
    ``service.overhead_ms`` pairs each one's ``service.find`` with
    ``ShardedCluster.find`` on the same rendered query.  Medians over
    the queries; ``loadgen.budget_sum_ratio`` is the median of each
    query's (render + queue wait + reported stages + isolated
    ``cluster.find`` self time + isolated service overhead) over the
    median ``query`` span: 1 when the isolated call did the stage work
    the traced one reported.
    """
    cluster = bench.cluster
    encoder = bench.approach.encoder
    by_index = {r.index: r for r in records if r.traced and r.failure is None}
    rows = []
    for index in sorted(by_index)[:ISOLATION_QUERIES]:
        query = queries[index - first_index]
        box = query.bbox
        spans: Dict[str, tuple] = {}
        _, spans["sfc.ranges_uncached_ms"] = _timed(
            covering_range_set,
            encoder.curve,
            box.min_lon,
            box.min_lat,
            box.max_lon,
            box.max_lat,
        )
        rendered, _ = bench.approach.render_query(query)
        shape, spans["docstore.analyze_ms"] = _timed(analyze_query, rendered)
        key, spans["docstore.shape_key_ms"] = _timed(
            param_shape_key, COLLECTION, rendered
        )
        matcher = None
        if key is not None:
            bound, spans["docstore.bind_ms"] = _timed(bind_plan, rendered, key[1])
            if bound is not None:
                shape, matcher = bound
        _, spans["cluster.target_ms"] = _timed(
            cluster.targeting_for, COLLECTION, rendered, shape=shape, fast_path=False
        )
        # As the service calls it: plan pieces and targeting handed in,
        # so find_ms is execution + merge and everything the service
        # does around that lands in service.overhead_ms.
        targeting = cluster.targeting_for(COLLECTION, rendered, shape=shape)
        result, spans["cluster.find_ms"] = _timed(
            cluster.find,
            COLLECTION,
            rendered,
            shape=shape,
            matcher=matcher,
            targeting=targeting,
        )
        encode: List[tuple] = []
        decode: List[tuple] = []
        n_bytes = 0
        for shard_id in targeting.shard_ids:
            shard_result = cluster.shards[shard_id].collection(
                COLLECTION
            ).find_with_stats(rendered, shape=shape)
            payload, interval = _timed(
                wire.encode_result, shard_result.documents, shard_result.stats
            )
            encode.append(interval)
            decode.append(_timed(wire.decode_result, payload)[1])
            n_bytes += len(payload)
        message = wire.PlanMessage(
            collection=COLLECTION,
            query=rendered,
            hint=None,
            max_geo_ranges=None,
            fast_path=True,
            shape_key=query_shape_key(COLLECTION, shape),
            exact_key=exact_query_key(COLLECTION, rendered),
            epoch=0,
        )
        message_bytes = len(pickle.dumps(message, protocol=wire.WIRE_PROTOCOL))
        rows.append(
            _IsolatedQuery(
                by_index[index],
                spans,
                encode,
                decode,
                n_bytes,
                message_bytes,
                sum(result.stats.stage_times_ms.values()),
            )
        )

    probe.sync()
    samples: Dict[str, List[float]] = {}

    def note(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    for row in rows:
        record = row.record
        for name, interval in row.intervals.items():
            note(name, probe.ms(*interval))
        find_ms = samples["cluster.find_ms"][-1]
        find_self_ms = find_ms - row.stages_ms / probe.factor(
            *row.intervals["cluster.find_ms"]
        )
        note("cluster.find_self_ms", find_self_ms)
        service_find_ms = (record.end_ns - record.rendered_ns) / 1e6
        overhead_ms = service_find_ms - find_ms - record.queue_wait_ms
        note("service.overhead_ms", overhead_ms)
        note(
            "budget_sum_ms",
            (record.rendered_ns - record.start_ns) / 1e6
            + record.queue_wait_ms
            + sum(record.stages_ms.values())
            + find_self_ms
            + overhead_ms,
        )
        note("query_span_ms", record.latency_ms)
        note("wire.encode_ms", sum(probe.ms(*i) for i in row.encode))
        note("wire.decode_ms", sum(probe.ms(*i) for i in row.decode))
        note("wire.bytes_per_query", row.wire_bytes)
        note("wire.plan_message_bytes", row.message_bytes)
    medians = {name: _median(values) for name, values in samples.items()}
    span_ms = medians.pop("query_span_ms", 0.0)
    sum_ms = medians.pop("budget_sum_ms", 0.0)
    medians["loadgen.budget_sum_ratio"] = sum_ms / span_ms if span_ms else 0.0
    return medians


def isolate_writes(
    bench: Bench,
    documents: Sequence[dict],
    batch_docs: int,
    scratch: str,
    probe: SpeedProbe,
) -> Dict[str, float]:
    """Time each write-side layer's public function on ingest batches.

    The cluster and the LSM engine are scratch instances fed the same
    batches, so routing + index cost and WAL + memtable cost read
    apart; the run's own inserts pay both inside one exclusive lock.
    """
    approach = bench.approach
    sample = documents[: batch_docs * ISOLATION_BATCHES]
    n = max(1, len(sample))
    prepared, transform = _timed(lambda: [approach.transform(d) for d in sample])
    encode_lonlat = approach.encoder.encode_lonlat
    _, encode = _timed(
        lambda: [encode_lonlat(d["longitude"], d["latitude"]) for d in sample]
    )

    cluster = ShardedCluster(
        topology=ClusterTopology(n_shards=N_SHARDS),
        chunk_max_bytes=bench.scale.chunk_max_bytes,
    )
    cluster.shard_collection(COLLECTION, approach.shard_key_spec(), strategy="range")
    batches = [
        prepared[i : i + batch_docs] for i in range(0, len(prepared), batch_docs)
    ]
    inserts = [_timed(cluster.insert_many, COLLECTION, b)[1] for b in batches]

    directory = os.path.join(scratch, "lsm-isolation-%d" % os.getpid())
    shutil.rmtree(directory, ignore_errors=True)
    applies: List[tuple] = []
    try:
        engine = LSMEngine(DurabilityConfig(directory=directory))
        engine.recover()
        try:
            for batch in batches:
                operations = [
                    (OP_PUT, key_bytes([d["record_id"]]), encode_document(d))
                    for d in batch
                ]
                applies.append(_timed(engine.apply_batch, operations)[1])
            _, checkpoint = _timed(engine.checkpoint)
        finally:
            engine.close()
        reopened = LSMEngine(DurabilityConfig(directory=directory))
        try:
            _, recover = _timed(reopened.recover)
        finally:
            reopened.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    probe.sync()
    return {
        "core.transform_us_per_doc": 1e3 * probe.ms(*transform) / n,
        "sfc.encode_us_per_point": 1e3 * probe.ms(*encode) / n,
        "cluster.insert_many_ms": _median(probe.ms(*i) for i in inserts),
        "lsm.apply_batch_ms": _median(probe.ms(*i) for i in applies),
        "lsm.checkpoint_ms": probe.ms(*checkpoint),
        "lsm.recover_isolated_ms": probe.ms(*recover),
    }


def engine_totals(bench: Bench) -> Dict[str, float]:
    """LSM engine composition summed over the twelve shards."""
    totals = {"flushes": 0, "compactions": 0, "run_bytes": 0, "runs": 0, "wal": 0}
    for shard in bench.cluster.shards.values():
        engine = shard.collection(COLLECTION).engine
        if engine is None:
            continue
        stats = engine.stats()
        totals["flushes"] += stats.flushes
        totals["compactions"] += stats.compactions
        totals["run_bytes"] += stats.run_bytes
        totals["runs"] += stats.n_runs
        totals["wal"] += stats.wal_segments
    return totals
