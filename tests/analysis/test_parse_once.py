"""The analyzer parses each file once per run, and ``--stats`` times it.

Regression net for the shared-AST restructure: per-module checkers
iterate the parsed modules instead of re-loading files, and the
project checkers receive the same objects through
:class:`~repro.analysis.checker.ProjectContext`.  ``select`` decides
what runs: unselected checkers are never called and a project model
is built only when a selected checker reads it.
"""

from __future__ import annotations

import ast
import io
import textwrap
from pathlib import Path

import pytest

from repro.analysis.checker import analyze, run_analysis
from repro.analysis.cli import main
from repro.analysis.findings import rule_selected

REPO_ROOT = Path(__file__).resolve().parents[2]

SOURCES = {
    "alpha.py": """
        def alpha():
            return 1
    """,
    "beta.py": """
        class BetaCache:
            def __init__(self):
                self._entries = {}

            def get(self, key):
                value = self._entries.get(key)
                if value is None:
                    return None
                return value

            def put(self, key, value):
                self._entries[key] = value
    """,
    "gamma.py": """
        import threading

        class Gamma:
            def __init__(self):
                self._lock = threading.Lock()

            def run(self):
                with self._lock:
                    return 1
    """,
}


@pytest.fixture
def tree(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    for name, body in SOURCES.items():
        (src / name).write_text(textwrap.dedent(body))
    return tmp_path


def test_each_file_is_parsed_exactly_once(tree, monkeypatch):
    counts = {}
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        if str(filename).endswith(".py"):
            counts[str(filename)] = counts.get(str(filename), 0) + 1
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    run_analysis(["src"], root=tree)
    expected = {str(tree / "src" / name): 1 for name in SOURCES}
    assert counts == expected


def test_stats_out_records_parse_and_checker_phases(tree):
    timings = {}
    run_analysis(["src"], root=tree, stats_out=timings)
    assert "<parse>" in timings
    assert "cache-coherence" in timings
    assert all(seconds >= 0.0 for seconds in timings.values())


def test_cli_stats_prints_the_timing_table(tree):
    out = io.StringIO()
    code = main(
        ["src", "--root", str(tree), "--stats"], out=out
    )
    assert code == 0
    text = out.getvalue()
    assert "per-checker timing (seconds):" in text
    assert "<parse>" in text
    assert "cache-coherence" in text


def test_cli_without_stats_stays_quiet(tree):
    out = io.StringIO()
    code = main(["src", "--root", str(tree)], out=out)
    assert code == 0
    assert "per-checker timing" not in out.getvalue()


def test_select_prunes_the_checkers_that_run(tree):
    timings = {}
    run_analysis(["src"], root=tree, select=["LK"], stats_out=timings)
    assert set(timings) == {"<parse>", "lock-order"}
    timings = {}
    run_analysis(["src"], root=tree, select=["CC", "LD001"], stats_out=timings)
    assert set(timings) == {"<parse>", "cache-coherence", "lock-discipline"}


@pytest.mark.parametrize(
    "select, built",
    [
        (["LD"], set()),
        (["LK"], {"callgraph", "locks"}),
        (["CC"], {"callgraph", "cache_model"}),
        # No module of this tree is on the durable path, so FS006
        # never gets to ask for the lock simulation.
        (["FS"], {"callgraph", "fs_model"}),
    ],
)
def test_select_builds_only_the_models_its_rules_read(tree, select, built):
    _findings, context = analyze(["src"], root=tree, select=select)
    assert set(vars(context)) - {"modules"} == built


@pytest.mark.parametrize(
    "fixture, select",
    [
        ("tests/analysis/cache_reconstruction", ["CC", "LD003"]),
        ("tests/analysis/fs_reconstruction", ["FS"]),
        ("tests/analysis/lockorder_reconstruction.py", ["LK001"]),
    ],
)
def test_scoped_run_equals_the_filtered_full_run(fixture, select):
    full = run_analysis([fixture], root=REPO_ROOT)
    scoped = run_analysis([fixture], root=REPO_ROOT, select=select)
    assert scoped
    assert scoped == [f for f in full if rule_selected(f.rule_id, select)]
