"""Seeded input streams: the benchmark's own query and ingest generators.

Everything the program receives is generated here from ``--seed``; the
same seed yields a byte-identical stream (see :func:`stream_digest`).
The stored data is a fixed fixture (``DATASET_SEED``): a 40-vehicle
fleet places 20 %% more or fewer documents in the Q^b box from one seed
to the next, which would swamp every timing bound, so only the queries
vary with the seed.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import itertools
import random
from typing import Iterable, List, Sequence

from repro.core.query import SpatioTemporalQuery
from repro.datagen import FleetConfig, FleetGenerator
from repro.datagen.vehicles import R_TIMESPAN
from repro.geo.geometry import BoundingBox
from repro.workloads.queries import BIG_BBOX, SMALL_BBOX

UTC = dt.timezone.utc
DATASET_SEED = 20181001
N_VEHICLES = 40
HOT_SET_SIZE = 64
HOT_SHARE = 0.3
#: One scan query after every nine point queries in ``proc_mixed``.
MIXED_CYCLE = 10
#: Ingested documents are stamped after the data set's five months, as
#: live GPS traces are; reader windows stay inside the five months, so
#: the brute-force oracle never depends on how far the ingest has got.
INGEST_TIMESPAN = (R_TIMESPAN[1], dt.datetime(2019, 1, 1, tzinfo=UTC))

_SPAN_HOURS = (R_TIMESPAN[1] - R_TIMESPAN[0]).total_seconds() / 3600.0


def dataset(n_docs: int) -> List[dict]:
    """The fixed fleet data set every workload deploys."""
    config = FleetConfig(n_vehicles=N_VEHICLES, seed=DATASET_SEED)
    return FleetGenerator(config).generate_list(n_docs)


def ingest_documents(n_docs: int) -> List[dict]:
    """Documents the write workload streams in, stamped after the data set.

    A fixture like the data set: which chunks split and migrate, and so
    how many shards the reader's box spans (1.05-2.19 across ingest
    seeds), depends on where these documents land.
    """
    config = FleetConfig(
        n_vehicles=N_VEHICLES,
        seed=DATASET_SEED + 1,
        time_from=INGEST_TIMESPAN[0],
        time_to=INGEST_TIMESPAN[1],
    )
    return FleetGenerator(config).generate_list(n_docs)


def _window(rng: random.Random, lo_hours: float, hi_hours: float):
    hours = rng.uniform(lo_hours, hi_hours)
    start = R_TIMESPAN[0] + dt.timedelta(
        hours=rng.uniform(0.0, _SPAN_HOURS - hours)
    )
    return start, start + dt.timedelta(hours=hours)


def scan_query(rng: random.Random, label: str) -> SpatioTemporalQuery:
    """Q^b shifted by +-0.3 of its sides, scaled 0.5-1.5x, 1-14 days."""
    width = BIG_BBOX.max_lon - BIG_BBOX.min_lon
    height = BIG_BBOX.max_lat - BIG_BBOX.min_lat
    min_lon = BIG_BBOX.min_lon + rng.uniform(-0.3, 0.3) * width
    min_lat = BIG_BBOX.min_lat + rng.uniform(-0.3, 0.3) * height
    scale = rng.uniform(0.5, 1.5)
    t_from, t_to = _window(rng, 24.0, 14 * 24.0)
    return SpatioTemporalQuery(
        BoundingBox(
            min_lon, min_lat, min_lon + width * scale, min_lat + height * scale
        ),
        t_from,
        t_to,
        label=label,
    )


def point_query(
    rng: random.Random, label: str, window_hours: Sequence[float]
) -> SpatioTemporalQuery:
    """A box centred on Q^s with sides 4x Q^s scaled 0.5-1.5x."""
    centre_lon = (SMALL_BBOX.min_lon + SMALL_BBOX.max_lon) / 2.0
    centre_lat = (SMALL_BBOX.min_lat + SMALL_BBOX.max_lat) / 2.0
    half_w = (SMALL_BBOX.max_lon - SMALL_BBOX.min_lon) * 2.0 * rng.uniform(0.5, 1.5)
    half_h = (SMALL_BBOX.max_lat - SMALL_BBOX.min_lat) * 2.0 * rng.uniform(0.5, 1.5)
    t_from, t_to = _window(rng, window_hours[0], window_hours[1])
    return SpatioTemporalQuery(
        BoundingBox(
            centre_lon - half_w,
            centre_lat - half_h,
            centre_lon + half_w,
            centre_lat + half_h,
        ),
        t_from,
        t_to,
        label=label,
    )


def scan_stream(seed: int, n: int) -> List[SpatioTemporalQuery]:
    """``hil_scan``: every literal fresh."""
    rng = random.Random(seed)
    return [scan_query(rng, "scan%d" % i) for i in range(n)]


def point_stream(
    seed: int, n: int, window_hours: Sequence[float], hot_share: float = HOT_SHARE
) -> List[SpatioTemporalQuery]:
    """``hil_point``: fresh literals plus Zipf(s=1) repeats of a hot set.

    The hot set is a fixture (the dashboards everyone opens): its top
    query alone is 6 %% of the traffic, so drawing it per seed moved the
    whole stream's counters by 8 %% from one seed to the next.
    """
    hot_rng = random.Random(DATASET_SEED)
    hot = [
        point_query(hot_rng, "hot%d" % i, window_hours) for i in range(HOT_SET_SIZE)
    ]
    rng = random.Random(seed)
    cumulative = list(
        itertools.accumulate(1.0 / rank for rank in range(1, HOT_SET_SIZE + 1))
    )
    out = []
    for i in range(n):
        if rng.random() < hot_share:
            out.append(rng.choices(hot, cum_weights=cumulative)[0])
        else:
            out.append(point_query(rng, "point%d" % i, window_hours))
    return out


def mixed_stream(
    seed: int, n: int, window_hours: Sequence[float]
) -> List[SpatioTemporalQuery]:
    """``proc_mixed``: nine fresh point queries, then one scan query."""
    points = iter(point_stream(seed, n, window_hours, hot_share=0.0))
    scans = iter(scan_stream(seed + 1, n // MIXED_CYCLE + 1))
    return [
        next(scans) if i % MIXED_CYCLE == MIXED_CYCLE - 1 else next(points)
        for i in range(n)
    ]


def stream_digest(
    queries: Iterable[SpatioTemporalQuery], documents: Iterable[dict] = ()
) -> str:
    """SHA-256 over every generated literal, for the same-seed check."""
    digest = hashlib.sha256()
    for query in queries:
        digest.update(
            repr(
                (query.bbox, query.time_from.isoformat(), query.time_to.isoformat())
            ).encode()
        )
    for document in documents:
        digest.update(
            repr(
                (
                    document["record_id"],
                    document["longitude"],
                    document["latitude"],
                    document["date"].isoformat(),
                )
            ).encode()
        )
    return digest.hexdigest()
