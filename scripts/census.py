#!/usr/bin/env python
"""Call census: which public functions of ``src/repro`` nothing runs.

Runs the three entry points that produce every number the project
reports and records each ``src/repro`` code object they enter:

* the four ``benchmarks/perf`` workloads with ``--smoke``, each with
  ``--trace 0`` and ``--trace 1``;
* the figure scripts, ``pytest benchmarks/ --benchmark-only
  --ignore=benchmarks/perf`` at ``REPRO_BENCH_RECORDS=2000``;
* ``python -m repro encode | generate R/S | compare | info``.

It then prints, per module, the public functions and methods (names
without a leading underscore, in public classes) that no entry point
reached.  A module none of whose functions ran is marked ``UNREACHED``.

Each entry point runs in a child interpreter that installs a global
``sys.settrace``/``threading.settrace`` hook, which sees every Python
frame the child's threads enter.  The child runs inside a temporary
copy of ``src/`` and ``benchmarks/``, so the result files it writes
never touch the checkout.  Blind spot: frames entered in *other*
processes are not seen, so the process-backend shard workers of
``proc_mixed`` (the worker loop in ``repro.service.executors``) show
as unreached.  Check the worker side
before deleting anything the census reports.

Takes a few minutes.  Usage::

    python scripts/census.py
"""

from __future__ import annotations

import ast
import json
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
PERF_WORKLOADS = ("hil_scan", "hil_point", "proc_mixed", "ingest_mixed")
BENCH_RECORDS = "2000"


def entry_points(out_dir: str) -> List[List[str]]:
    """Each entry point's command line, relative to the copy's root."""
    runs = [
        ["benchmarks/perf/run.py", "--workload", workload, "--smoke",
         "--trace", trace]
        for workload in PERF_WORKLOADS
        for trace in ("0", "1")
    ]
    runs.append(
        ["-m", "pytest", "benchmarks/", "--benchmark-only",
         "--ignore=benchmarks/perf", "-q", "-p", "no:cacheprovider"]
    )
    r_csv = os.path.join(out_dir, "r.csv")
    s_csv = os.path.join(out_dir, "s.csv")
    for args in (
        ["encode", "23.727539", "37.983810"],
        ["generate", "--dataset", "R", "--records", "500", "--out", r_csv],
        ["generate", "--dataset", "S", "--records", "500", "--out", s_csv],
        ["compare", "--records", "2000"],
        ["info"],
    ):
        runs.append(["-m", "repro"] + args)
    return runs


# -- the probe (runs in each child) ------------------------------------------


def probe(record_path: str, source_root: str, argv: List[str]) -> int:
    """Run ``argv`` like ``python argv...`` and record what it entered."""
    seen: Set = set()

    def hook(frame, event, arg):
        seen.add(frame.f_code)  # the global hook only sees "call"
        return None

    def dump() -> None:
        reached = sorted(
            {
                (os.path.relpath(code.co_filename, source_root),
                 code.co_firstlineno)
                for code in seen
                if code.co_filename.startswith(source_root + os.sep)
            }
        )
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(reached, fh)

    threading.settrace(hook)
    sys.settrace(hook)
    status = 0
    try:
        if argv[0] == "-m":
            sys.argv = [argv[1]] + argv[2:]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(argv)
            sys.path.insert(0, os.path.dirname(os.path.abspath(argv[0])))
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as stop:
        status = stop.code if isinstance(stop.code, int) else int(bool(stop.code))
    finally:
        sys.settrace(None)
        threading.settrace(None)
        dump()
    return status


# -- the census (runs in the parent) -----------------------------------------


def first_line(node) -> int:
    """A def's ``co_firstlineno``: its first decorator's line, if any."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def public_functions(source_root: Path) -> Dict[str, List[Tuple[str, int]]]:
    """Per module: ``(qualified name, first line)`` of each public def."""
    found: Dict[str, List[Tuple[str, int]]] = {}
    for path in sorted(source_root.rglob("*.py")):
        relpath = str(path.relative_to(source_root))
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=relpath)
        rows: List[Tuple[str, int]] = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    rows.append((node.name, first_line(node)))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not member.name.startswith("_"):
                        rows.append(
                            ("%s.%s" % (node.name, member.name),
                             first_line(member))
                        )
        if rows:
            found[relpath] = rows
    return found


def module_name(relpath: str) -> str:
    parts = relpath[: -len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def main() -> int:
    reached: Set[Tuple[str, int]] = set()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        copy = os.path.join(tmp, "repo")
        os.makedirs(copy)
        for name in ("src", "benchmarks"):
            shutil.copytree(
                REPO_ROOT / name,
                os.path.join(copy, name),
                ignore=shutil.ignore_patterns("__pycache__", "out", "results"),
            )
        for name in ("BENCHMARK.json", "pyproject.toml"):
            shutil.copy(REPO_ROOT / name, os.path.join(copy, name))
        source_root = os.path.join(copy, "src", "repro")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(copy, "src"), copy]
        )
        env.setdefault("REPRO_BENCH_RECORDS", BENCH_RECORDS)
        for index, argv in enumerate(entry_points(tmp)):
            record = os.path.join(tmp, "reached-%02d.json" % index)
            print("census: %s" % " ".join(argv), file=sys.stderr, flush=True)
            status = subprocess.run(
                [sys.executable, __file__, "--probe", record, source_root]
                + argv,
                cwd=copy,
                env=env,
                stdout=subprocess.DEVNULL,
            ).returncode
            if status != 0:
                # A figure script's shape check can fail at census scale;
                # what the run reached up to there still counts.
                print("census: exited %d" % status, file=sys.stderr)
            with open(record, encoding="utf-8") as fh:
                reached.update((path, line) for path, line in json.load(fh))

    total = unreached_total = 0
    for relpath, rows in public_functions(REPO_ROOT / "src" / "repro").items():
        missed = [name for name, line in rows if (relpath, line) not in reached]
        total += len(rows)
        unreached_total += len(missed)
        if not missed:
            continue
        mark = "  UNREACHED" if len(missed) == len(rows) else ""
        print(
            "repro.%s  %d of %d public functions unreached%s"
            % (module_name(relpath), len(missed), len(rows), mark)
        )
        for name in missed:
            print("    %s" % name)
    print(
        "%d of %d public functions unreached by the three entry points"
        % (unreached_total, total)
    )
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--probe":
        sys.exit(probe(sys.argv[2], sys.argv[3], sys.argv[4:]))
    sys.exit(main())
