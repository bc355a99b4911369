"""Checker base class, registry, and the analysis driver.

A :class:`Checker` receives one parsed module at a time as a
:class:`ModuleInfo` and returns :class:`~repro.analysis.findings.Finding`
objects; :func:`run_analysis` walks the requested paths, parses every
Python file once, and fans each module out to every *selected*
checker — a checker none of whose rules the selection names does not
run at all.  Checkers register themselves with the :func:`register`
decorator so the CLI and tests discover them the same way.

Project-wide checkers share one :class:`ProjectContext` per run: the
call graph and the models over it are computed lazily, once, by the
first selected rule that reads them — the lock-order, fs-consistency
and cache-coherence families all walk the PR-3 call graph, and
resolving it twice would double the most expensive phase of the run.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.analysis.findings import (
    Finding,
    Severity,
    assign_ordinals,
    rule_selected,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.cachemodel import CacheModel
    from repro.analysis.callgraph import CallGraph
    from repro.analysis.fsmodel import FsModel
    from repro.analysis.lockgraph import LockAnalysis

__all__ = [
    "Checker",
    "ModuleInfo",
    "ProjectChecker",
    "ProjectContext",
    "analyze",
    "register",
    "registered_checkers",
    "run_analysis",
]


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed source file handed to every checker."""

    #: Path relative to the analysis root, in posix form.
    path: str
    #: Dotted module name, e.g. ``repro.service.service``.
    package: str
    tree: ast.Module
    source: str


class Checker:
    """Base class for one family of rules.

    Subclasses set :attr:`name` (the checker id), :attr:`rules`
    (rule id → one-line description), and implement :meth:`check`.
    """

    name: str = ""
    description: str = ""
    rules: Dict[str, str] = {}
    #: Rule id → a paragraph explaining the failure mode and the fix;
    #: surfaced as the SARIF ``fullDescription``.
    rule_details: Dict[str, str] = {}
    #: Rule id → the severity a fresh finding gets; surfaced as the
    #: SARIF ``defaultConfiguration.level``.
    rule_levels: Dict[str, Severity] = {}
    #: Documentation anchor for the family (SARIF ``helpUri``).
    help_uri: str = ""

    def check(self, module: ModuleInfo) -> List[Finding]:
        """Findings this checker raises against one module."""
        raise NotImplementedError


class ProjectContext:
    """Lazily-computed whole-project analyses, shared per run.

    Each model is computed on first use and cached, so a run pays only
    for what its selected rules read, and a run with several project
    checkers resolves the call graph exactly once.
    """

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules = list(modules)

    @cached_property
    def callgraph(self) -> "CallGraph":
        """The resolved project call graph every model walks."""
        from repro.analysis.callgraph import build_call_graph

        return build_call_graph(self.modules)

    @cached_property
    def locks(self) -> "LockAnalysis":
        """The PR-3 lock analysis (registry, held sets, order graph)."""
        from repro.analysis.lockgraph import analyze_locks

        return analyze_locks(self.modules, self.callgraph)

    @cached_property
    def fs_model(self) -> "FsModel":
        """Filesystem-effect summaries over the shared call graph."""
        from repro.analysis.fsmodel import build_fs_model

        return build_fs_model(self.modules, self.callgraph)

    @cached_property
    def cache_model(self) -> "CacheModel":
        """Cache-coherence summaries over the shared call graph."""
        from repro.analysis.cachemodel import build_cache_model

        return build_cache_model(self.modules, self.callgraph)


class ProjectChecker(Checker):
    """A checker that sees the whole project at once.

    Per-module checkers cannot reason about locks acquired in one
    function and released in another file; subclasses implement
    :meth:`check_project` and receive every parsed module together,
    after all per-module checkers ran, plus the shared
    :class:`ProjectContext` (built on the fly when a test drives the
    checker directly without one).
    """

    def check(self, module: ModuleInfo) -> List[Finding]:
        """Project checkers do not run per module."""
        return []

    def check_project(
        self,
        modules: Sequence[ModuleInfo],
        context: Optional[ProjectContext] = None,
    ) -> List[Finding]:
        """Findings raised against the whole module set."""
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Checker]] = {}


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if not cls.name:
        raise ValueError("checker %r has no name" % cls)
    _REGISTRY[cls.name] = cls
    return cls


def registered_checkers() -> Dict[str, Type[Checker]]:
    """Name → class for every registered checker."""
    # Importing the package registers the built-in checkers.
    from repro.analysis import checkers as _checkers  # noqa: F401

    return dict(_REGISTRY)


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a repo-relative path.

    Everything up to and including a ``src`` component is stripped, so
    ``src/repro/docstore/btree.py`` becomes ``repro.docstore.btree``.
    """
    parts = list(Path(rel_path).with_suffix("").parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def iter_python_files(
    paths: Sequence[str], root: Path
) -> Iterator[Path]:
    """Every ``.py`` file under the requested paths, sorted."""
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            yield from sorted(path.rglob("*.py"))


def load_module(path: Path, root: Path) -> ModuleInfo | Finding:
    """Parse one file; returns a parse-failure finding when broken."""
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Finding(
            rule_id="AN001",
            severity=Severity.ERROR,
            message="file does not parse: %s" % exc.msg,
            path=rel,
            line=exc.lineno or 1,
            col=exc.offset or 0,
        )
    return ModuleInfo(
        path=rel, package=module_name_for(rel), tree=tree, source=source
    )


def analyze(
    paths: Sequence[str],
    root: str | Path = ".",
    select: Optional[Sequence[str]] = None,
    stats_out: Optional[Dict[str, float]] = None,
) -> Tuple[List[Finding], ProjectContext]:
    """Run the selected checkers; ordered findings plus the context.

    ``select`` is a list of rule-id prefixes (e.g. ``["LD", "FS001"]``).
    It decides what *runs*, not only what is reported: a checker whose
    ``rules`` hold no selected id is never instantiated, and the
    project models (call graph, lock simulation, FS and cache effect
    summaries) are built by the first selected checker that reads
    them, or not at all.  Findings of a running checker that fall
    outside the selection (``FS001`` selected, ``FS002`` found) are
    dropped.

    Every file is parsed exactly once up front and the shared ASTs are
    handed to every checker phase: per-module checkers iterate the
    parsed modules, project checkers receive them all together with
    the returned :class:`ProjectContext`.

    ``stats_out``, when given a dict, is filled with wall-clock
    seconds per phase: one ``"<parse>"`` entry plus one entry per
    checker that ran.  A shared model is charged to the checker that
    asked for it first.
    """
    root_path = Path(root).resolve()
    checkers = [
        cls()
        for _name, cls in sorted(registered_checkers().items())
        if any(rule_selected(rule, select) for rule in cls.rules)
    ]
    findings: List[Finding] = []
    modules: List[ModuleInfo] = []

    def _note(phase: str, started: float) -> None:
        if stats_out is not None:
            stats_out[phase] = time.perf_counter() - started

    started = time.perf_counter()
    for path in iter_python_files(paths, root_path):
        loaded = load_module(path, root_path)
        if isinstance(loaded, Finding):
            findings.append(loaded)
        else:
            modules.append(loaded)
    _note("<parse>", started)
    context = ProjectContext(modules)
    # Per-module checkers first, then the project checkers, each group
    # in name order (the sort is stable).
    checkers.sort(key=lambda checker: isinstance(checker, ProjectChecker))
    for checker in checkers:
        started = time.perf_counter()
        if isinstance(checker, ProjectChecker):
            findings.extend(checker.check_project(modules, context))
        else:
            for module in modules:
                findings.extend(checker.check(module))
        _note(checker.name, started)
    findings = [f for f in findings if rule_selected(f.rule_id, select)]
    return assign_ordinals(findings), context


def run_analysis(
    paths: Sequence[str],
    root: str | Path = ".",
    select: Optional[Sequence[str]] = None,
    changed_scope: Optional[Sequence[str]] = None,
    stats_out: Optional[Dict[str, float]] = None,
) -> List[Finding]:
    """:func:`analyze`, reduced to its findings.

    ``changed_scope`` (a list of repo-relative changed paths) keeps
    only findings in those files or their transitive call-graph
    dependents.  It is a report filter, not a speed-up: the analysis
    still covers everything, so project checkers see the same world as
    a full run and surviving fingerprints are bit-identical to the
    full run's.
    """
    findings, context = analyze(paths, root, select, stats_out)
    if changed_scope is not None:
        from repro.analysis.changed import dependent_modules

        scope = dependent_modules(changed_scope, context.callgraph)
        findings = [f for f in findings if f.path in scope]
    return findings
