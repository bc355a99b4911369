"""Command-line interface: ``python -m repro <command>``.

Small utilities a downstream user reaches for first:

* ``encode`` — show the Hilbert / GeoHash / ST-Hash encodings of a
  point (and time);
* ``generate`` — write one of the paper's data sets to CSV;
* ``compare`` — deploy the four approaches on generated data and print
  the paper's four metrics for a query;
* ``info`` — version and system inventory.

Arguments are checked as they are parsed: an out-of-range coordinate,
order, count or window, or an unreadable timestamp, ends in argparse's
usage line and exit code 2.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import math
import sys
from typing import Any, Callable, List, Optional

__all__ = ["main", "build_parser"]

_UTC = _dt.timezone.utc


def _bounded(
    convert: Callable[[str], Any], low: float, high: float = math.inf
) -> Callable[[str], Any]:
    """An argparse ``type=`` that converts and checks ``low <= v <= high``.

    NaN fails the comparison, so it is rejected with the range.
    """

    def parse(text: str) -> Any:
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "invalid %s value: %r" % (convert.__name__, text)
            ) from None
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(
                "%r is not in [%s, %s]" % (text, low, high)
            )
        return value

    return parse


def _timestamp(text: str) -> _dt.datetime:
    """An ISO timestamp; naive ones are read as UTC."""
    try:
        stamp = _dt.datetime.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "invalid ISO timestamp: %r" % text
        ) from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=_UTC)
    return stamp


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the repro CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Scalable Spatio-temporal Indexing and "
            "Querying over a Document-oriented NoSQL Store' (EDBT 2021)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    encode = sub.add_parser(
        "encode", help="encode a (lon, lat[, time]) point on every curve"
    )
    encode.add_argument("lon", type=_bounded(float, -180.0, 180.0))
    encode.add_argument("lat", type=_bounded(float, -90.0, 90.0))
    encode.add_argument(
        "--time",
        type=_timestamp,
        default="2018-08-01T12:00:00",
        help="ISO timestamp for the ST-Hash encoding",
    )
    encode.add_argument("--order", type=_bounded(int, 1, 32), default=13)

    generate = sub.add_parser(
        "generate", help="write a data set to CSV (paper Appendix A.1 format)"
    )
    generate.add_argument("--dataset", choices=("R", "S"), default="R")
    generate.add_argument("--records", type=_bounded(int, 0), default=10_000)
    generate.add_argument("--out", required=True)

    compare = sub.add_parser(
        "compare", help="run the four approaches on one query and compare"
    )
    compare.add_argument("--records", type=_bounded(int, 1), default=8_000)
    compare.add_argument("--shards", type=_bounded(int, 1), default=8)
    compare.add_argument(
        "--query", choices=("small", "big"), default="big",
        help="which of the paper's query boxes to use",
    )
    compare.add_argument(
        "--window",
        type=_bounded(int, 0),
        default=7,
        help="temporal window in days",
    )

    sub.add_parser("info", help="version and system inventory")
    return parser


def _cmd_encode(args: argparse.Namespace) -> int:
    from repro.core.encoder import SpatioTemporalEncoder
    from repro.core.sthash import STHashEncoder
    from repro.sfc.geohash import geohash_encode

    stamp = args.time
    hilbert = SpatioTemporalEncoder.hilbert_global(args.order)
    zorder = SpatioTemporalEncoder.zorder_global(args.order)
    sthash = STHashEncoder()
    print("point           : (%g, %g) at %s" % (args.lon, args.lat, stamp))
    print("hilbertIndex    : %d" % hilbert.encode_lonlat(args.lon, args.lat))
    print("z-order index   : %d" % zorder.encode_lonlat(args.lon, args.lat))
    print("geohash (10 ch) : %s" % geohash_encode(args.lon, args.lat, 10))
    print("stHash          : %s" % sthash.encode(args.lon, args.lat, stamp))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datagen.csv_io import write_csv_file
    from repro.datagen.uniform import UniformGenerator
    from repro.datagen.vehicles import FleetConfig, FleetGenerator

    if args.dataset == "R":
        docs = FleetGenerator(
            FleetConfig(n_vehicles=max(20, args.records // 300))
        ).generate_list(args.records)
    else:
        docs = UniformGenerator().generate_list(args.records)
    write_csv_file(args.out, docs)
    print("wrote %d records to %s" % (len(docs), args.out))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.cluster.cluster import ClusterTopology
    from repro.core.approaches import deploy_approach, make_approach
    from repro.core.benchmark import measure_query
    from repro.core.query import SpatioTemporalQuery
    from repro.datagen.vehicles import FleetConfig, FleetGenerator, GREECE_BBOX
    from repro.workloads.queries import BIG_BBOX, SMALL_BBOX

    docs = FleetGenerator(
        FleetConfig(n_vehicles=max(20, args.records // 300))
    ).generate_list(args.records)
    bbox = BIG_BBOX if args.query == "big" else SMALL_BBOX
    query = SpatioTemporalQuery(
        bbox=bbox,
        time_from=_dt.datetime(2018, 8, 1, tzinfo=_UTC),
        time_to=_dt.datetime(2018, 8, 1, tzinfo=_UTC)
        + _dt.timedelta(days=args.window),
        label="%s/%dd" % (args.query, args.window),
    )
    header = "%-9s %6s %9s %9s %10s %8s" % (
        "approach", "nodes", "maxKeys", "maxDocs", "time(ms)", "results"
    )
    print(header)
    print("-" * len(header))
    for name in ("bslST", "bslTS", "hil", "hilstar"):
        deployment = deploy_approach(
            make_approach(name, dataset_bbox=GREECE_BBOX),
            docs,
            topology=ClusterTopology(n_shards=args.shards),
            chunk_max_bytes=24 * 1024,
        )
        m = measure_query(deployment, query, runs=3, average_last=1)
        print(
            "%-9s %6d %9d %9d %10.2f %8d"
            % (
                name,
                m.nodes,
                m.max_keys_examined,
                m.max_docs_examined,
                m.execution_time_ms,
                m.n_returned,
            )
        )
    return 0


def _cmd_info(_args: argparse.Namespace) -> int:
    import repro

    print("repro %s" % repro.__version__)
    print(
        "Reproduction of Koutroumanis & Doulkeridis, EDBT 2021.\n"
        "Subsystems: sfc (Hilbert/Z-order/GeoHash/Morton3), geo, docstore\n"
        "(B+tree, planner, matcher, durable LSM engine, $bucketAuto and\n"
        "$project), cluster (chunks, balancer, zones, router), service\n"
        "(thread and process executors), core (approaches\n"
        "bslST/bslTS/hil/hil*, ST-Hash, workload-aware zones), datagen\n"
        "(R/S), workloads (Q^s/Q^b)."
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "encode": _cmd_encode,
        "generate": _cmd_generate,
        "compare": _cmd_compare,
        "info": _cmd_info,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
