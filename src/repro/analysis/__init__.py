"""Project-specific static analysis for the reproduction codebase.

PR 1 turned the reproduction into a concurrent serving system, and its
review immediately found lock leaks on timeout paths — bugs that are
mechanically detectable from the source.  This package encodes the
project's locking, crash-consistency, and cache-coherence contracts as
AST-based checkers and gates CI on them:

* ``lock-discipline`` (LD) — acquisitions must be released on every
  exception path, multi-lock acquisition must be sorted, and shared
  attributes of lock-owning classes must be mutated under their lock.
* ``lock-order`` (LK) — interprocedural: a project call graph
  propagates held-lock sets across call edges, catching lock-order
  cycles split across functions, unbounded blocking calls under locks,
  and acquisitions escaping without a caller-side release.  The
  resulting graph is cross-validated at runtime by
  :mod:`repro.sanitizer`.
* ``fs-consistency`` (FS) — crash-consistency ordering on the durable
  write path: fsync coverage, rename / directory-fsync / delete order,
  the commit point, temp-file recovery, no fsync under a contended
  lock.
* ``cache-coherence`` (CC) — every cache is version-keyed, and every
  mutation of version-governed state reaches a version bump on all
  paths, unwind included.

The layering contract (the docstore never imports the cluster or the
service) is a test, ``tests/test_public_api.py``, not a rule.

Pre-existing, deliberately-accepted findings live in
``analysis-baseline.json`` with recorded justifications; any *new*
finding fails CI.  Run ``python -m repro.analysis src --baseline
analysis-baseline.json``.  ``--format sarif`` emits SARIF 2.1.0 for
code-scanning upload.
"""

from __future__ import annotations

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.checker import (
    Checker,
    ModuleInfo,
    register,
    registered_checkers,
    run_analysis,
)
from repro.analysis.findings import Finding, Severity

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Checker",
    "Finding",
    "ModuleInfo",
    "Severity",
    "register",
    "registered_checkers",
    "run_analysis",
]
