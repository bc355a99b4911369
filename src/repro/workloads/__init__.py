"""Query workloads matching the paper's evaluation."""

from repro.workloads.queries import (
    BIG_BBOX,
    QUERY_WINDOWS,
    SMALL_BBOX,
    all_queries,
    big_queries,
    small_queries,
)

__all__ = [
    "BIG_BBOX",
    "QUERY_WINDOWS",
    "SMALL_BBOX",
    "all_queries",
    "big_queries",
    "small_queries",
]
