"""One benchmark for the whole system.

    python3 benchmarks/perf/run.py --workload hil_scan --seed 1
    python3 benchmarks/perf/run.py --all --seed 1
    python3 benchmarks/perf/run.py compare A.jsonl B.jsonl

Builds a real deployment, drives it through the public API with the
benchmark's own seeded generator, checks results against a brute-force
oracle, prints every metric as ``name value unit``, writes one JSON
document per run under ``out/``, and ends with the one-line JSON result
``BENCHMARK.json``'s contract asks for.  ``README.md`` explains the
workloads and how the layer metrics map to the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.perf import compare, layers, setup, workloads  # noqa: E402

OUT = HERE / "out"


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def environment(scale: setup.Scale, seed: int, seconds: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # an exported checkout is not a git repository
    return {
        "cpuCount": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "scale": scale.name,
        "docs": scale.docs,
        "ingestSeedDocs": scale.ingest_seed_docs,
        "shards": setup.N_SHARDS,
        "clients": setup.N_CLIENTS,
        "seed": seed,
        "seconds": seconds,
    }


def run_once(
    workload: str, seed: int, seconds: int, trace: bool, scale: setup.Scale
) -> dict:
    """Run one workload; print its metrics; return the run document."""
    contract = load_contract()
    units = {
        m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]
    }
    required = contract["per_layer"] if trace else contract["end_to_end"]
    outcome = workloads.run(scale, workload, seed, seconds, trace, str(OUT))
    unknown = sorted(set(outcome.metrics) - set(units))
    missing = sorted(m["name"] for m in required if m["name"] not in outcome.metrics)
    if unknown or missing:
        raise SystemExit(
            "metrics out of step with BENCHMARK.json: not declared %s, not measured %s"
            % (unknown, missing)
        )
    for name in sorted(outcome.metrics):
        print("%s %r %s" % (name, outcome.metrics[name], units[name]))
    if "budget" in outcome.details:
        print(layers.format_budget(outcome.details["budget"]))
    print(
        "attempted %d failed %d %s"
        % (outcome.attempted, outcome.failed, outcome.details.get("failures", {}))
    )
    document = {
        "workload": workload,
        "trace": trace,
        "environment": environment(scale, seed, seconds),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(outcome.metrics.items())
        },
        "details": outcome.details,
    }
    OUT.mkdir(exist_ok=True)
    stem = "%s-%d" % (workload, seed)
    if scale is not setup.FULL:
        stem = "%s-%s" % (scale.name, stem)
    with open(OUT / ("run-%s-trace%d.json" % (stem, trace)), "w") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
    if scale is setup.FULL:
        with open(OUT / "history.jsonl", "a") as fh:
            fh.write(json.dumps(document, sort_keys=True) + "\n")
    if trace:
        layers.write_spans(str(OUT / ("trace-%s.jsonl" % stem)), outcome.spans)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: document["metrics"][m["name"]] for m in required},
    }
    document["result"] = result
    return document


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "compare":
        return compare.main(argv[1:], load_contract())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=setup.WORKLOADS)
    target.add_argument(
        "--all", action="store_true", help="run the four workloads in sequence"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=load_contract()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="2 000 documents, a few dozen operations"
    )
    args = parser.parse_args(argv)
    if args.all:
        # One process per workload, so peak_rss_mb is each one's own.
        status = 0
        for workload in setup.WORKLOADS:
            forwarded = [a for a in argv if a != "--all"] + ["--workload", workload]
            status |= subprocess.run(
                [sys.executable, str(HERE / "run.py")] + forwarded
            ).returncode
        return status
    scale = setup.SMOKE if args.smoke else setup.FULL
    # Leave through the finally blocks when told to stop, so the speed
    # probe and the shard workers are ended and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    document = run_once(
        args.workload, args.seed, args.seconds, bool(args.trace), scale
    )
    print(json.dumps(document["result"]))
    return 0 if document["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
