"""Fixtures for the static-analyzer tests.

Snippet runners (one checker over inline source) plus the session's
one whole-tree analysis: ``src/`` is analysed once through
:func:`~repro.analysis.checker.analyze` (``shipped``) and once more
end to end through ``cli.main`` (``shipped_main``); every test about
the shipped tree filters one of the two instead of re-running it.
"""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis import cli
from repro.analysis.checker import (
    ModuleInfo,
    analyze,
    module_name_for,
    registered_checkers,
)
from repro.analysis.findings import rule_selected

REPO_ROOT = Path(__file__).resolve().parents[2]


def _check(
    source,
    checker_name,
    path="src/repro/service/fixture.py",
    package="repro.service.fixture",
):
    """Run a single checker over an inline source snippet."""
    cleaned = textwrap.dedent(source)
    module = ModuleInfo(
        path=path,
        package=package,
        tree=ast.parse(cleaned),
        source=cleaned,
    )
    checker_cls = registered_checkers()[checker_name]
    return checker_cls().check(module)


def _modules(sources):
    """Parse ``{path: source}`` snippets into a ModuleInfo list."""
    if isinstance(sources, str):
        sources = {"src/repro/service/fixture.py": sources}
    modules = []
    for path, source in sorted(sources.items()):
        cleaned = textwrap.dedent(source)
        modules.append(
            ModuleInfo(
                path=path,
                package=module_name_for(path),
                tree=ast.parse(cleaned),
                source=cleaned,
            )
        )
    return modules


def _check_project(sources, checker_name="lock-order"):
    """Run a project checker over one or more source snippets."""
    checker_cls = registered_checkers()[checker_name]
    return checker_cls().check_project(_modules(sources))


@pytest.fixture
def check():
    """Callable running one checker over a snippet; returns findings."""
    return _check


@pytest.fixture
def check_project():
    """Callable running a project checker over snippet(s)."""
    return _check_project


@pytest.fixture
def parse_modules():
    """Callable parsing ``{path: source}`` into ModuleInfo objects."""
    return _modules


@pytest.fixture
def rule_ids():
    """Callable reducing findings to their sorted rule-id list."""
    return lambda findings: sorted(f.rule_id for f in findings)


@pytest.fixture(scope="session")
def shipped():
    """``(findings, ProjectContext)`` of the one analysis of ``src/``."""
    return analyze(["src"], root=REPO_ROOT)


@pytest.fixture(scope="session")
def shipped_findings(shipped):
    """Callable: the shipped tree's findings under rule-id prefixes.

    What ``run_analysis(["src"], select=prefixes)`` returns — ordinals
    are per rule, so filtering the whole run is the scoped run.
    """
    findings, _context = shipped
    return lambda *prefixes: [
        f for f in findings if rule_selected(f.rule_id, prefixes)
    ]


@pytest.fixture(scope="session")
def _main_runs():
    return {}


@pytest.fixture
def shipped_main(monkeypatch, _main_runs):
    """``cli.main`` that analyses each (paths, root, select) once a session.

    The first whole-``src`` caller pays for a real end-to-end run
    through the CLI's own driver call; later callers re-render that
    run's findings under their own baseline/format flags.
    """
    real = cli.run_analysis

    def once(paths, root=".", select=None, **rest):
        if any(value is not None for value in rest.values()):
            return real(paths, root=root, select=select, **rest)
        key = (tuple(paths), str(root), tuple(select or ()))
        if key not in _main_runs:
            _main_runs[key] = real(paths, root=root, select=select)
        return list(_main_runs[key])

    monkeypatch.setattr(cli, "run_analysis", once)
    return cli.main
