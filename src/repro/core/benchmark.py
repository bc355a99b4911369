"""The paper's measurement methodology (Section 5.1).

Each query runs 30 times so caches are warm; the reported execution
time is the average of the last 10 runs.  Alongside the paper's four
metrics, measurements capture real wall-clock, the cell-identification
time (Table 8), and the per-shard index choice (Table 7).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.approaches import Deployment
from repro.core.query import SpatioTemporalQuery

__all__ = ["QueryMeasurement", "measure_query"]

DEFAULT_RUNS = 30
DEFAULT_AVERAGE_LAST = 10


@dataclass(frozen=True)
class QueryMeasurement:
    """One (approach, query) cell of the paper's figures."""

    approach: str
    query_label: str
    zones: bool
    n_returned: int
    nodes: int
    max_keys_examined: int
    max_docs_examined: int
    execution_time_ms: float
    wall_time_ms: float
    decomposition_ms: float
    index_used_by_shard: Dict[str, str] = field(default_factory=dict)


def measure_query(
    deployment: Deployment,
    query: SpatioTemporalQuery,
    runs: int = DEFAULT_RUNS,
    average_last: int = DEFAULT_AVERAGE_LAST,
    service=None,
) -> QueryMeasurement:
    """Execute the paper's 30-runs / average-last-10 protocol.

    When ``service`` (a :class:`repro.service.QueryService` over the
    deployment's cluster) is given, execution goes through the
    concurrent serving frontend — parallel scatter-gather, query
    parsing, admission control — instead of the sequential library
    path.  The reported metrics are identical by construction;
    wall-clock then reflects the serving path.

    ``decomposition_ms`` averages what ``render_query`` spent computing
    the hil/hil* covering (:meth:`SpatioTemporalQuery.hilbert_ranges`).
    """
    if runs < 1:
        raise ValueError("runs must be positive")
    if average_last < 1 or average_last > runs:
        raise ValueError("average_last must be in [1, runs]")
    model_times: List[float] = []
    wall_times: List[float] = []
    decomposition_times: List[float] = []
    last_result = None
    for _ in range(runs):
        started = time.perf_counter()
        if service is None:
            result, decomposition_ms = deployment.execute(query)
        else:
            rendered, decomposition_ms = deployment.approach.render_query(
                query
            )
            result = service.find(deployment.collection, rendered)
        wall_times.append((time.perf_counter() - started) * 1000.0)
        model_times.append(result.stats.execution_time_ms)
        decomposition_times.append(decomposition_ms)
        last_result = result
    assert last_result is not None
    tail_model = model_times[-average_last:]
    tail_wall = wall_times[-average_last:]
    stats = last_result.stats
    return QueryMeasurement(
        approach=deployment.approach.name,
        query_label=query.label,
        zones=deployment.zones_enabled,
        n_returned=len(last_result),
        nodes=stats.nodes,
        max_keys_examined=stats.max_keys_examined,
        max_docs_examined=stats.max_docs_examined,
        execution_time_ms=statistics.fmean(tail_model),
        wall_time_ms=statistics.fmean(tail_wall),
        decomposition_ms=statistics.fmean(decomposition_times),
        index_used_by_shard=stats.index_used_by_shard(),
    )

