"""The load generator: closed-loop readers, the paced and burst writers.

Callers are analysts who wait for their reply, so reads are a closed
loop of ``N_CLIENTS`` threads pulling the next query off one shared
stream.  The paced writer is an open loop: each batch has a due time
and is timed from it, so a stall shows as latency on later batches.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.approaches import COLLECTION
from repro.errors import QueryTimeoutError, ServiceOverloadedError

from benchmarks.perf.calibrate import SpeedProbe
from benchmarks.perf.setup import Bench

#: Every 20th query keeps its result ids and counter frame for the oracle.
ORACLE_EVERY = 20


@dataclass
class QueryRecord:
    """What one served query reported, reduced to numbers."""

    index: int
    start_ns: int
    end_ns: int
    #: Set on traced queries only: render end = service.find start.
    rendered_ns: int = 0
    decomposition_ms: float = 0.0
    n_ranges: int = 0
    n_results: int = 0
    nodes: int = 0
    broadcast: bool = False
    max_keys: int = 0
    max_docs: int = 0
    total_keys: int = 0
    total_docs: int = 0
    seeks: int = 0
    stages_ms: Dict[str, float] = field(default_factory=dict)
    queue_wait_ms: float = 0.0
    cache_outcome: Optional[str] = None
    #: Sorted record ids and the cluster counter frame, on sampled queries.
    sample_ids: Optional[List[int]] = None
    sample_frame: Optional[dict] = None
    #: "rejected" / "timed_out" / "error" when the query failed.
    failure: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6

    @property
    def traced(self) -> bool:
        return self.rendered_ns != 0

    def rescale(self, factor: float) -> None:
        """Divide every duration by the host's slowdown while it ran."""
        self.end_ns = self.start_ns + round((self.end_ns - self.start_ns) / factor)
        if self.rendered_ns:
            self.rendered_ns = self.start_ns + round(
                (self.rendered_ns - self.start_ns) / factor
            )
        self.decomposition_ms /= factor
        self.queue_wait_ms /= factor
        self.stages_ms = {k: v / factor for k, v in self.stages_ms.items()}


def _count_ranges(rendered: dict) -> int:
    """Hilbert ranges plus isolated cells in a rendered query's ``$or``."""
    total = 0
    for clause in rendered.get("$or", ()):
        (predicate,) = clause.values()
        total += len(predicate["$in"]) if "$in" in predicate else 1
    return total


def serve_one(bench: Bench, index: int, query, traced: bool) -> QueryRecord:
    """Render + find one query and reduce the reply to a record."""
    render = bench.approach.render_query
    find = bench.service.find
    start = time.perf_counter_ns()
    try:
        rendered, decomposition_ms = render(query)
        middle = time.perf_counter_ns() if traced else 0
        result = find(COLLECTION, rendered)
        end = time.perf_counter_ns()
    except ServiceOverloadedError:
        return QueryRecord(index, start, time.perf_counter_ns(), failure="rejected")
    except QueryTimeoutError:
        return QueryRecord(index, start, time.perf_counter_ns(), failure="timed_out")
    except Exception:  # the run goes on; the failure is counted and reported
        return QueryRecord(index, start, time.perf_counter_ns(), failure="error")
    stats = result.stats
    shards = stats.per_shard.values()
    record = QueryRecord(
        index=index,
        start_ns=start,
        end_ns=end,
        rendered_ns=middle,
        decomposition_ms=decomposition_ms,
        n_ranges=_count_ranges(rendered),
        n_results=len(result.documents),
        nodes=stats.nodes,
        broadcast=stats.broadcast,
        max_keys=stats.max_keys_examined,
        max_docs=stats.max_docs_examined,
        total_keys=stats.total_keys_examined,
        total_docs=stats.total_docs_examined,
        seeks=sum(s.seeks for s in shards),
        stages_ms=dict(stats.stage_times_ms),
        queue_wait_ms=result.queue_wait_ms,
        cache_outcome=result.cache_outcome,
    )
    if index % ORACLE_EVERY == 0:
        record.sample_ids = sorted(d["record_id"] for d in result.documents)
        record.sample_frame = stats.as_dict()
    return record


def run_readers(
    bench: Bench,
    queries: Sequence,
    n_clients: int,
    first_index: int = 0,
    trace: bool = False,
    stop: Optional[threading.Event] = None,
) -> "ReadPass":
    """Serve ``queries`` closed-loop with ``n_clients`` threads.

    With ``stop`` the pass also ends when the event is set (the reader
    that accompanies the paced writer).
    """
    cursor = itertools.count()
    per_client: List[List[QueryRecord]] = [[] for _ in range(n_clients)]

    def client(records: List[QueryRecord]) -> None:
        while stop is None or not stop.is_set():
            position = next(cursor)  # atomic under the interpreter lock
            if position >= len(queries):
                return
            index = first_index + position
            records.append(serve_one(bench, index, queries[position], trace))

    threads = [
        threading.Thread(target=client, args=(records,), name="client-%d" % i)
        for i, records in enumerate(per_client)
    ]
    started = time.perf_counter_ns()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ended = time.perf_counter_ns()
    # A closed loop has no schedule to fall behind; its lateness is the
    # longest a client took between one reply and its next request.
    max_gap_ns = max(
        (
            later.start_ns - earlier.end_ns
            for chunk in per_client
            for earlier, later in zip(chunk, chunk[1:])
        ),
        default=0,
    )
    records = sorted(
        (r for chunk in per_client for r in chunk), key=lambda r: r.index
    )
    return ReadPass(records, started, ended, max_gap_ns / 1e6)


@dataclass
class ReadPass:
    """The records of one pass over a stream and how long it took."""

    records: List[QueryRecord]
    start_ns: int
    end_ns: int
    max_gap_ms: float
    #: Length in fast-state seconds; set by :meth:`normalise`.
    seconds: float = 0.0

    @property
    def raw_seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    def normalise(self, probe: SpeedProbe) -> None:
        """Express every duration in the host's fast-state time."""
        probe.sync()
        for record in self.records:
            record.rescale(probe.factor(record.start_ns, record.end_ns))
        self.seconds = probe.seconds(self.start_ns, self.end_ns)

    @property
    def served(self) -> List[QueryRecord]:
        return [r for r in self.records if r.failure is None]

    def failures(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            if record.failure is not None:
                counts[record.failure] = counts.get(record.failure, 0) + 1
        return counts


@dataclass
class BatchRecord:
    """One ``insert_many`` call: when it was due, sent and acknowledged."""

    due_ns: int
    sent_ns: int
    done_ns: int
    n_docs: int
    transformed_ns: int = 0
    acknowledged: bool = True

    @property
    def latency_ms(self) -> float:
        return (self.done_ns - self.due_ns) / 1e6

    def rescale(self, factor: float) -> None:
        """Divide every duration (from the due time) by the host's slowdown."""
        for name in ("sent_ns", "transformed_ns", "done_ns"):
            offset = getattr(self, name) - self.due_ns
            setattr(self, name, self.due_ns + round(offset / factor))


def run_writer(
    bench: Bench,
    batches: Sequence[List[dict]],
    interval_s: Optional[float] = None,
    probe: Optional[SpeedProbe] = None,
) -> List[BatchRecord]:
    """Insert ``batches`` through ``QueryService.insert_many``.

    ``interval_s`` paces them (one due every interval, timed from its
    due time); ``None`` sends them back to back.  The interval is in
    fast-state time like every other duration: while the host is slow
    the schedule stretches with it, or the writer's share of the lock
    (and so the reader's throughput) would follow the host's phases.
    """
    transform: Callable = bench.approach.transform
    insert_many = bench.service.insert_many
    records: List[BatchRecord] = []
    due = time.perf_counter_ns()
    for batch in batches:
        if interval_s is None:
            due = time.perf_counter_ns()
        else:
            delay = (due - time.perf_counter_ns()) / 1e9
            if delay > 0:
                time.sleep(delay)
        sent = time.perf_counter_ns()
        prepared = [transform(document) for document in batch]
        transformed = time.perf_counter_ns()
        try:
            insert_many(COLLECTION, prepared)
            acknowledged = True
        except Exception:  # counted as a failed operation, run goes on
            acknowledged = False
        done = time.perf_counter_ns()
        records.append(
            BatchRecord(due, sent, done, len(batch), transformed, acknowledged)
        )
        if interval_s is not None:
            probe.sync()
            due += int(interval_s * 1e9 * probe.factor(sent, done))
    return records


def split_batches(documents: Sequence[dict], size: int) -> List[List[dict]]:
    return [list(documents[i : i + size]) for i in range(0, len(documents), size)]
