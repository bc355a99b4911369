"""Reproduction of "Scalable Spatio-temporal Indexing and Querying over
a Document-oriented NoSQL Store" (Koutroumanis & Doulkeridis, EDBT 2021).

Public API layers, bottom-up:

* :mod:`repro.sfc` — Hilbert / Z-order / GeoHash curves and the
  rectangle-to-ranges covering algorithm;
* :mod:`repro.geo` — points, boxes, polygons, GeoJSON;
* :mod:`repro.docstore` — a MongoDB-like single-node document store
  (B-tree indexes, query planner, aggregation, storage sizing);
* :mod:`repro.cluster` — sharding: chunks, balancer, zones, router;
* :mod:`repro.service` — the concurrent query-serving frontend:
  parallel scatter-gather, parameterized planning, admission
  control, load generation;
* :mod:`repro.core` — the paper's contribution: Hilbert-keyed
  spatio-temporal indexing/sharding, the four evaluated approaches,
  and the measurement methodology;
* :mod:`repro.datagen` / :mod:`repro.workloads` — the R/S data sets
  and the Q^s/Q^b query workloads.
"""

from repro.core import (
    BaselineST,
    BaselineTS,
    Deployment,
    HilbertApproach,
    SpatioTemporalEncoder,
    SpatioTemporalQuery,
    deploy_approach,
    make_approach,
    measure_query,
    run_workload,
)
from repro.service import (
    LoadGenerator,
    QueryService,
    ServiceConfig,
)

__version__ = "1.0.0"

__all__ = [
    "LoadGenerator",
    "QueryService",
    "ServiceConfig",
    "BaselineST",
    "BaselineTS",
    "Deployment",
    "HilbertApproach",
    "SpatioTemporalEncoder",
    "SpatioTemporalQuery",
    "deploy_approach",
    "make_approach",
    "measure_query",
    "run_workload",
    "__version__",
]
