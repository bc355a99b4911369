"""Harness self-check at the ``--smoke`` scale (seconds, not minutes).

Not part of the tier-1 suite (``testpaths = ["tests"]``); run it by hand
or in CI after touching ``benchmarks/perf/``::

    PYTHONPATH=src python3 -m pytest benchmarks/perf/test_perf_harness.py -q
"""

import json
import re
import sys

import pytest

from benchmarks.perf import compare, run, setup

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: Counts that must repeat exactly when the same seed runs twice.
EXACT = (
    "keys_examined_per_query",
    "docs_examined_per_query",
    "nodes_per_query",
)
SMOKE_SECONDS = 1


@pytest.fixture(scope="module")
def contract():
    return run.load_contract()


def smoke(workload, trace, seed=5):
    return run.run_once(workload, seed, SMOKE_SECONDS, trace, setup.SMOKE)


def test_contract_shape(contract):
    assert [w["name"] for w in contract["workloads"]] == list(setup.WORKLOADS)
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names))
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in contract["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert contract["paths"] == ["benchmarks/perf"]


@pytest.mark.parametrize("workload", setup.WORKLOADS)
def test_every_named_metric_is_emitted(contract, workload, capsys):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        document = smoke(workload, trace)
        result = document["result"]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in contract[key]]
        if not trace:  # the driver refuses an end-to-end metric that reads 0
            assert all(v["value"] for v in result["metrics"].values())
        for metric in contract[key]:
            emitted = result["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], (int, float))
        printed = capsys.readouterr().out
        for metric in contract[key]:
            assert re.search(
                r"^%s \S+ %s$" % (re.escape(metric["name"]), re.escape(metric["unit"])),
                printed,
                re.MULTILINE,
            ), metric["name"]
    # The traced budget's rows are the spans' self times: none negative.
    assert document["details"]["budget"]["negative_self_times"] == 0


@pytest.mark.parametrize("workload", ("hil_scan", "hil_point", "proc_mixed"))
def test_same_seed_same_stream_and_counts(workload):
    first, second = smoke(workload, False), smoke(workload, False)
    assert (
        first["details"]["streamDigest"] == second["details"]["streamDigest"]
    )
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    other = smoke(workload, False, seed=6)
    assert other["details"]["streamDigest"] != first["details"]["streamDigest"]


def test_ingest_stream_repeats_and_recovers():
    first, second = smoke("ingest_mixed", False), smoke("ingest_mixed", False)
    assert (
        first["details"]["streamDigest"] == second["details"]["streamDigest"]
    )
    for document in (first, second):
        details = document["details"]
        assert details["recoveredDocuments"] == details["expectedDocuments"]


def test_compare_verdicts(contract, tmp_path):
    def history(path, qps):
        with open(path, "w") as fh:
            for value in qps:
                fh.write(
                    json.dumps(
                        {
                            "workload": "hil_scan",
                            "trace": False,
                            "metrics": {"query_qps": {"value": value, "unit": "1/s"}},
                        }
                    )
                    + "\n"
                )
        return str(path)

    base = history(tmp_path / "a.jsonl", [100.0, 101.0, 99.0, 100.5])
    slower = history(tmp_path / "b.jsonl", [70.0, 71.0, 69.0, 70.5])
    noisy = history(tmp_path / "c.jsonl", [100.0, 160.0, 60.0, 120.0])
    assert compare.main([base, base], contract) == 0
    assert compare.main([base, slower], contract) == 1
    assert compare.main([slower, base], contract) == 0
    assert compare.verdict([100.0, 160.0, 60.0, 120.0], [50.0], "higher", 0.1) == (
        "unresolved"
    )
    assert compare.main([noisy, slower], contract) == 0


def test_exits_non_zero_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to measure."""
    import shutil
    import subprocess

    bare = tmp_path / "bare"
    shutil.copytree(run.HERE, bare / "benchmarks" / "perf", ignore=lambda *_: ["out"])
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "hil_scan"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
