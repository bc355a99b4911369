"""Fleet analytics: the paper's motivating use case end to end.

Section 1 motivates the system with fleet-management operators doing
exploratory analysis of historical routes: spatio-temporal range
queries of varying granularity feeding fuel-cost and movement-pattern
analysis.  This example reproduces that workflow:

1. load a month of fleet traces into a Hilbert-sharded cluster;
2. drill down with range queries of shrinking spatial granularity;
3. summarise the retrieved traces (fuel rate per vehicle, busiest
   road types) in plain Python.

Run:  python examples/fleet_analytics.py
"""

import datetime as dt
from collections import Counter, defaultdict
from statistics import fmean

from repro.cluster.cluster import ClusterTopology
from repro.core import SpatioTemporalQuery, deploy_approach, make_approach
from repro.core.loader import BulkLoader
from repro.datagen import FleetConfig, FleetGenerator
from repro.geo import BoundingBox

UTC = dt.timezone.utc

# Drill-down boxes: all of Attica → greater Athens → downtown.
DRILLDOWN = [
    ("Attica region", BoundingBox(23.3, 37.7, 24.2, 38.4)),
    ("greater Athens", BoundingBox(23.60, 37.90, 23.90, 38.10)),
    ("downtown Athens", BoundingBox(23.74, 37.97, 23.79, 38.01)),
]


def main() -> None:
    print("Loading 8,000 traces into a 6-shard hil cluster ...")
    documents = FleetGenerator(FleetConfig(n_vehicles=60)).generate_list(8000)
    deployment = deploy_approach(
        make_approach("hil"),
        documents,
        topology=ClusterTopology(n_shards=6),
        chunk_max_bytes=24 * 1024,
        loader=BulkLoader(batch_size=2000),
    )

    window = (
        dt.datetime(2018, 8, 1, tzinfo=UTC),
        dt.datetime(2018, 9, 1, tzinfo=UTC),
    )

    print("\nDrill-down over August 2018:")
    traces = []
    for name, bbox in DRILLDOWN:
        query = SpatioTemporalQuery(
            bbox=bbox, time_from=window[0], time_to=window[1], label=name
        )
        result, _ = deployment.execute(query)
        print(
            "  %-16s %5d traces   %d nodes   %.2f ms (modelled)"
            % (
                name,
                len(result),
                result.stats.nodes,
                result.stats.execution_time_ms,
            )
        )
        traces = result.documents  # keep the finest granularity last

    if not traces:
        # Fall back to the widest region so the analytics below always
        # have input.
        query = SpatioTemporalQuery(
            bbox=DRILLDOWN[0][1], time_from=window[0], time_to=window[1]
        )
        traces = deployment.execute(query)[0].documents

    # --- Analytics over the retrieved traces -----------------------------
    print("\nFuel analysis (top 5 vehicles by mean fuel rate):")
    by_vehicle = defaultdict(list)
    for trace in traces:
        by_vehicle[trace["vehicle_id"]].append(trace)
    fuel = sorted(
        (
            (
                fmean(t["fuel_rate_lph"] for t in rows),
                vehicle,
                len(rows),
                fmean(t["speed_kmh"] for t in rows),
            )
            for vehicle, rows in by_vehicle.items()
        ),
        reverse=True,
    )
    for mean_fuel, vehicle, n, mean_speed in fuel[:5]:
        print(
            "  vehicle %-4s %3d traces   %.2f l/h at %.1f km/h"
            % (vehicle, n, mean_fuel, mean_speed)
        )

    print("\nTraffic by road type:")
    roads = Counter(trace["road"]["type"] for trace in traces)
    for road_type, n in roads.most_common():
        print("  %-12s %d" % (road_type, n))


if __name__ == "__main__":
    main()
