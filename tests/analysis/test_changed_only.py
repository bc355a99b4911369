"""``--changed-only``: git scoping plus the call-graph dependent walk.

The mode must report a finding in an *unchanged* file when that file
calls into a changed one — editing a callee can change what a caller
inlines — and must stay silent about files the change cannot reach.
"""

import io
import subprocess

import pytest

from repro.analysis.callgraph import build_call_graph
from repro.analysis.changed import (
    ChangedFilesError,
    changed_files,
    dependent_modules,
)
from repro.analysis.cli import main


def git(repo, *argv):
    subprocess.run(
        [
            "git",
            "-c",
            "user.email=test@example.com",
            "-c",
            "user.name=test",
            *argv,
        ],
        cwd=str(repo),
        check=True,
        capture_output=True,
    )


CALLEE = """
def helper():
    return 1
"""

# The caller carries an LD001 (an acquire with no release on the
# unwind path) so a scoped run has something to report — or suppress.
CALLER = """
from callee import helper

def use(lock):
    lock.acquire()
    helper()
    lock.release()
"""

UNRELATED = """
def lonely(lock):
    lock.acquire()
    lock.release()
"""


@pytest.fixture
def repo(tmp_path):
    """A tmp git repo with caller/callee/unrelated committed clean."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "callee.py").write_text(CALLEE)
    (src / "caller.py").write_text(CALLER)
    (src / "unrelated.py").write_text(UNRELATED)
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", ".")
    git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


class TestChangedFiles:
    def test_lists_modified_and_untracked(self, repo):
        (repo / "src" / "callee.py").write_text(CALLEE + "\n# edited\n")
        (repo / "src" / "fresh.py").write_text("x = 1\n")
        assert changed_files(repo, "HEAD") == [
            "src/callee.py",
            "src/fresh.py",
        ]

    def test_clean_tree_changes_nothing(self, repo):
        assert changed_files(repo, "HEAD") == []

    def test_bad_ref_raises(self, repo):
        with pytest.raises(ChangedFilesError):
            changed_files(repo, "no-such-ref")


class TestDependentModules:
    def _graph(self, parse_modules):
        return build_call_graph(
            parse_modules(
                {
                    "src/repro/service/callee.py": """
                        def helper():
                            return 1
                    """,
                    "src/repro/service/caller.py": """
                        from repro.service.callee import helper

                        def use():
                            return helper()
                    """,
                    "src/repro/service/grandcaller.py": """
                        from repro.service.caller import use

                        def entry():
                            return use()
                    """,
                    "src/repro/service/unrelated.py": """
                        def lonely():
                            return 2
                    """,
                }
            )
        )

    def test_walk_is_caller_ward_and_transitive(self, parse_modules):
        scope = dependent_modules(
            ["src/repro/service/callee.py"], self._graph(parse_modules)
        )
        assert "src/repro/service/caller.py" in scope
        assert "src/repro/service/grandcaller.py" in scope
        assert "src/repro/service/unrelated.py" not in scope

    def test_callees_of_a_change_are_not_pulled_in(self, parse_modules):
        scope = dependent_modules(
            ["src/repro/service/caller.py"], self._graph(parse_modules)
        )
        # Editing the caller cannot change the callee's findings.
        assert "src/repro/service/callee.py" not in scope
        assert "src/repro/service/grandcaller.py" in scope

    def test_unknown_paths_stay_in_scope(self, parse_modules):
        scope = dependent_modules(
            ["docs/README.md"], self._graph(parse_modules)
        )
        assert scope == {"docs/README.md"}


class TestChangedOnlyCli:
    def _run(self, repo, *extra):
        out = io.StringIO()
        code = main(
            ["src", "--root", str(repo), *extra],
            out=out,
        )
        return code, out.getvalue()

    def test_full_run_reports_both_findings(self, repo):
        code, output = self._run(repo, "--select", "LD")
        assert code == 1
        assert "src/caller.py" in output
        assert "src/unrelated.py" in output

    def test_clean_tree_scopes_everything_out(self, repo):
        code, output = self._run(
            repo, "--select", "LD", "--changed-only", "--changed-ref", "HEAD"
        )
        assert code == 0
        assert "LD001" not in output

    def test_editing_the_callee_surfaces_the_callers_finding(self, repo):
        (repo / "src" / "callee.py").write_text(CALLEE + "\n# edited\n")
        code, output = self._run(
            repo, "--select", "LD", "--changed-only", "--changed-ref", "HEAD"
        )
        assert code == 1
        assert "src/caller.py" in output
        assert "src/unrelated.py" not in output

    def test_unrelated_edit_reports_only_itself(self, repo):
        (repo / "src" / "unrelated.py").write_text(
            UNRELATED + "\n# edited\n"
        )
        code, output = self._run(
            repo, "--select", "LD", "--changed-only", "--changed-ref", "HEAD"
        )
        assert code == 1
        assert "src/unrelated.py" in output
        assert "src/caller.py" not in output

    def test_bad_ref_is_a_usage_error(self, repo):
        code, output = self._run(
            repo, "--changed-only", "--changed-ref", "no-such-ref"
        )
        assert code == 2
        assert "error:" in output

    def test_write_baseline_refuses_a_scoped_run(self, repo):
        code, output = self._run(
            repo,
            "--changed-only",
            "--baseline",
            "b.json",
            "--write-baseline",
        )
        assert code == 2
        assert "--changed-only" in output


@pytest.fixture
def src_graph(shipped):
    """The shipped tree's call graph, from the session's one analysis."""
    return shipped[1].callgraph


class TestRealTreeStatsScope:
    """The dependent walk covers the statistics subsystem: editing the
    ANALYZE pass must re-run analysis on everything that consumes the
    catalog — the service that stamps and serves it, the chooser that
    prices plans from it, the load generator that reports plan
    outcomes, and the stats CLI."""

    def test_stats_edit_pulls_in_catalog_consumers(self, src_graph):
        scope = dependent_modules(
            ["src/repro/docstore/stats.py"], src_graph
        )
        assert "src/repro/service/service.py" in scope
        assert "src/repro/core/chooser.py" in scope
        assert "src/repro/cli.py" in scope
        assert "src/repro/service/loadgen.py" in scope

    def test_chooser_is_a_leaf_of_the_src_graph(self, src_graph):
        # The chooser's consumers are benchmarks and tests, outside
        # the src tree: editing it re-analyzes only itself.
        scope = dependent_modules(
            ["src/repro/core/chooser.py"], src_graph
        )
        assert scope == {"src/repro/core/chooser.py"}


class TestRealTreeExecutorScope:
    """The dependent walk on the shipped tree: editing the executor
    backend must re-run analysis on everything whose findings could
    shift — the service that inlines its mappers, the load generator
    that labels runs with the backend, and the sanitizer bridge that
    registers the worker instrumenter."""

    def test_executors_edit_pulls_in_the_service_layer(self, src_graph):
        scope = dependent_modules(
            ["src/repro/service/executors.py"], src_graph
        )
        assert "src/repro/service/service.py" in scope
        assert "src/repro/service/loadgen.py" in scope
        assert "src/repro/sanitizer/instrument.py" in scope
        # The docstore layer sits *below* the executors: its findings
        # cannot change, so it must stay out of scope.
        assert not any("repro/docstore/" in path for path in scope)

    def test_wire_edit_reaches_the_executors(self, src_graph):
        scope = dependent_modules(
            ["src/repro/service/wire.py"], src_graph
        )
        assert "src/repro/service/executors.py" in scope
        assert "src/repro/service/service.py" in scope
