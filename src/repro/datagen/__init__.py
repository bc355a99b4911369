"""Dataset generation: fleet GPS traces (R) and uniform points (S)."""

from repro.datagen.csv_io import (
    csv_to_documents,
    documents_to_csv,
    read_csv_file,
    write_csv_file,
)
from repro.datagen.datasets import (
    DatasetInfo,
    ReproScale,
    load_r_dataset,
    load_s_dataset,
)
from repro.datagen.uniform import (
    S_BBOX,
    S_TIMESPAN,
    UniformConfig,
    UniformGenerator,
)
from repro.datagen.vehicles import (
    GREECE_BBOX,
    R_TIMESPAN,
    FleetConfig,
    FleetGenerator,
)

__all__ = [
    "csv_to_documents",
    "documents_to_csv",
    "read_csv_file",
    "write_csv_file",
    "DatasetInfo",
    "ReproScale",
    "load_r_dataset",
    "load_s_dataset",
    "S_BBOX",
    "S_TIMESPAN",
    "UniformConfig",
    "UniformGenerator",
    "GREECE_BBOX",
    "R_TIMESPAN",
    "FleetConfig",
    "FleetGenerator",
]
