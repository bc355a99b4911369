"""The paper's query workloads (Section 5.1, "Queries").

Two categories of spatio-temporal range queries:

* **Q^s (small)** — rectangle
  ``[(23.757495, 37.987295), (23.766958, 37.992997)]`` (central
  Athens);
* **Q^b (big)** — rectangle
  ``[(23.606039, 38.023982), (24.032754, 38.353926)]``, about 2 603
  times larger.

Each category has four queries with growing, *non-overlapping* time
spans: 1 hour, 1 day, 1 week, 1 month.  The anchors chosen here keep
every window inside both the R (Jul-Nov 2018) and S (Jul 1-Sep 15
2018) time spans, so the same workload runs against both data sets,
as in the paper.
"""

from __future__ import annotations

import datetime as _dt
import random
from typing import Dict, List

from repro.core.query import SpatioTemporalQuery
from repro.geo.geometry import BoundingBox

__all__ = [
    "SMALL_BBOX",
    "BIG_BBOX",
    "QUERY_WINDOWS",
    "small_queries",
    "big_queries",
    "all_queries",
    "randomized_queries",
]

#: Q^s spatial constraint (the paper's exact coordinates).
SMALL_BBOX = BoundingBox(23.757495, 37.987295, 23.766958, 37.992997)

#: Q^b spatial constraint (the paper's exact coordinates).
BIG_BBOX = BoundingBox(23.606039, 38.023982, 24.032754, 38.353926)

_UTC = _dt.timezone.utc

#: Non-overlapping windows: 1 hour, 1 day, 1 week, 1 month.
QUERY_WINDOWS: List[tuple] = [
    (
        "1h",
        _dt.datetime(2018, 7, 10, 8, 0, tzinfo=_UTC),
        _dt.datetime(2018, 7, 10, 9, 0, tzinfo=_UTC),
    ),
    (
        "1d",
        _dt.datetime(2018, 7, 20, 0, 0, tzinfo=_UTC),
        _dt.datetime(2018, 7, 21, 0, 0, tzinfo=_UTC),
    ),
    (
        "1w",
        _dt.datetime(2018, 8, 1, 0, 0, tzinfo=_UTC),
        _dt.datetime(2018, 8, 8, 0, 0, tzinfo=_UTC),
    ),
    (
        "1m",
        _dt.datetime(2018, 8, 10, 0, 0, tzinfo=_UTC),
        _dt.datetime(2018, 9, 9, 0, 0, tzinfo=_UTC),
    ),
]


def _build(category: str, bbox: BoundingBox) -> List[SpatioTemporalQuery]:
    queries = []
    for i, (_tag, t_from, t_to) in enumerate(QUERY_WINDOWS, start=1):
        queries.append(
            SpatioTemporalQuery(
                bbox=bbox,
                time_from=t_from,
                time_to=t_to,
                label="Q%s%d" % (category, i),
            )
        )
    return queries


def small_queries() -> List[SpatioTemporalQuery]:
    """Q^s_1 .. Q^s_4."""
    return _build("s", SMALL_BBOX)


def big_queries() -> List[SpatioTemporalQuery]:
    """Q^b_1 .. Q^b_4."""
    return _build("b", BIG_BBOX)


def all_queries() -> Dict[str, List[SpatioTemporalQuery]]:
    """Both query categories keyed by 'small'/'big'."""
    return {"small": small_queries(), "big": big_queries()}


def randomized_queries(
    n: int,
    seed: int = 3,
    window_hours: float = 1.0,
) -> List[SpatioTemporalQuery]:
    """A seeded stream of jittered Q^s/Q^b-style queries.

    The paper's eight fixed queries repeat verbatim under load, so
    anything keyed on the exact query answers all of them after one
    pass — which says nothing about real traffic, where every request
    differs in its literals.  This stream keeps the workload's
    *shape* (small or big box, fixed-length window, each with p=0.5)
    while randomizing every literal: the box is the Q^s or Q^b
    rectangle shifted by up to ±0.3 of its own dimensions and scaled
    by 0.5-1.5x, and the window anchor is drawn uniformly from the
    first 60 days of the R data set.  Deterministic in ``seed`` so
    benchmark arms replay the identical stream.
    """
    rng = random.Random(seed)
    start = _dt.datetime(2018, 7, 1, tzinfo=_UTC)
    queries = []
    for i in range(n):
        big = rng.random() < 0.5
        base = BIG_BBOX if big else SMALL_BBOX
        width = base.max_lon - base.min_lon
        height = base.max_lat - base.min_lat
        dx = rng.uniform(-0.3, 0.3) * width
        dy = rng.uniform(-0.3, 0.3) * height
        scale = rng.uniform(0.5, 1.5)
        min_lon = base.min_lon + dx
        min_lat = base.min_lat + dy
        bbox = BoundingBox(
            min_lon, min_lat, min_lon + width * scale, min_lat + height * scale
        )
        t_from = start + _dt.timedelta(hours=rng.uniform(0, 24 * 60))
        queries.append(
            SpatioTemporalQuery(
                bbox=bbox,
                time_from=t_from,
                time_to=t_from + _dt.timedelta(hours=window_hours),
                label="Qr%s%d" % ("b" if big else "s", i),
            )
        )
    return queries
