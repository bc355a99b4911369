"""The paper's contribution: Hilbert spatio-temporal keys over a
document store, with indexing, sharding, zoning, and the measurement
protocol — plus two measured extensions, workload-aware zones (the
paper's future work) and the ST-Hash comparator (Section 2.2)."""

from repro.core.adaptive import (
    WeightedQuery,
    configure_workload_aware_zones,
    workload_aware_boundaries,
)
from repro.core.approaches import (
    APPROACH_NAMES,
    Approach,
    BaselineST,
    BaselineTS,
    Deployment,
    HilbertApproach,
    deploy_approach,
    make_approach,
)
from repro.core.benchmark import QueryMeasurement, measure_query
from repro.core.encoder import DEFAULT_HILBERT_ORDER, SpatioTemporalEncoder
from repro.core.loader import DEFAULT_BATCH_SIZE, BulkLoader
from repro.core.query import HilbertQueryRendering, SpatioTemporalQuery
from repro.core.sthash import STHashApproach, STHashEncoder
from repro.core.zoning import (
    build_zones,
    compute_zone_boundaries,
    configure_zones,
)

__all__ = [
    "APPROACH_NAMES",
    "Approach",
    "BaselineST",
    "BaselineTS",
    "Deployment",
    "HilbertApproach",
    "deploy_approach",
    "make_approach",
    "QueryMeasurement",
    "measure_query",
    "DEFAULT_HILBERT_ORDER",
    "SpatioTemporalEncoder",
    "DEFAULT_BATCH_SIZE",
    "BulkLoader",
    "HilbertQueryRendering",
    "SpatioTemporalQuery",
    "build_zones",
    "compute_zone_boundaries",
    "configure_zones",
    "WeightedQuery",
    "configure_workload_aware_zones",
    "workload_aware_boundaries",
    "STHashApproach",
    "STHashEncoder",
]
