"""The concurrent query-serving frontend (in-process "mongos service").

Everything above :mod:`repro.cluster` that turns the sharded cluster
from a single-caller library into a query *server*:

* :class:`QueryService` — scatter-gather over an executor backend,
  one FIFO reader-writer lock, admission control with bounded
  queueing and deadlines;
* :mod:`repro.service.executors` — the execution backends:
  :class:`ThreadedExecutor` (the caller's thread, reads taking turns
  in arrival order) and :class:`ShardWorkerPool` (worker processes,
  forks of the whole cluster, each serving whole reads from one
  picklable plan message and answering with record ids, see
  :mod:`repro.service.wire`);
* :func:`query_shape_key` — a value-free query key no read path uses
  any more (no plan is cached: every read is parsed afresh in one
  walk), kept for the benchmark harness;
* :class:`ServiceMetrics` — latency percentiles, queue wait, and
  throughput for the serving path;
* :class:`LoadGenerator` — closed-/open-loop replay of the paper's
  workloads at a target offered load.
"""

from repro.service.executors import (
    Deadline,
    ShardWorkerPool,
    SubquerySpec,
    ThreadedExecutor,
    resolve_backend,
)
from repro.service.loadgen import LoadGenerator, LoadReport, render_workload
from repro.service.locks import ReadWriteLock
from repro.service.metrics import MetricsSnapshot, ServiceMetrics, percentile
from repro.service.plan_cache import query_shape_key
from repro.service.service import (
    QueryService,
    ServiceConfig,
    ServiceFindResult,
)

__all__ = [
    "QueryService",
    "ServiceConfig",
    "ServiceFindResult",
    "ThreadedExecutor",
    "ShardWorkerPool",
    "SubquerySpec",
    "Deadline",
    "resolve_backend",
    "query_shape_key",
    "ServiceMetrics",
    "MetricsSnapshot",
    "percentile",
    "ReadWriteLock",
    "LoadGenerator",
    "LoadReport",
    "render_workload",
]
