"""``run.py compare A B``: did B get worse than A, by the benchmark's bounds?

A and B are run documents: ``out/run-*.json`` files or ``.jsonl`` files
holding one document per line (``out/history.jsonl``, or a copy of it
per commit).  Each workload x end-to-end metric gets one row built from
the medians of its untraced runs.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List


def load_runs(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    return [json.loads(text)]


def samples(runs: List[dict]) -> Dict[tuple, List[float]]:
    """(workload, metric) -> values over the untraced runs."""
    out: Dict[tuple, List[float]] = {}
    for run in runs:
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(metric["value"])
    return out


def spread(values: List[float]) -> float:
    """Interquartile range over the median; 0 with fewer than 2 runs."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """better / same / worse, or unresolved when A's own runs disagree more
    than the bound allows."""
    if spread(a) > bound:
        return "unresolved"
    base, new = statistics.median(a), statistics.median(b)
    change = (new - base) / abs(base) if base else 0.0
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def main(argv: List[str], contract: dict) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json|A.jsonl B.json|B.jsonl")
        return 2
    a, b = (samples(load_runs(path)) for path in argv)
    any_worse = False
    print(
        "%-13s %-26s %12s %12s %8s %7s  %s"
        % ("workload", "metric", "A median", "B median", "spread A", "bound", "verdict")
    )
    for workload in [w["name"] for w in contract["workloads"]]:
        for metric in contract["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            result = verdict(a[key], b[key], metric["better"], metric["bound"])
            any_worse |= result == "worse"
            print(
                "%-13s %-26s %12.4f %12.4f %7.1f%% %6.0f%%  %s"
                % (
                    workload,
                    metric["name"],
                    statistics.median(a[key]),
                    statistics.median(b[key]),
                    spread(a[key]) * 100.0,
                    metric["bound"] * 100.0,
                    result,
                )
            )
    return 1 if any_worse else 0
