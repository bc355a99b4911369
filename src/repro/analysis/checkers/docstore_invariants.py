"""Docstore-invariant rules (DS): layering and caller-document safety.

The document store is the bottom of the stack: B-tree, index, and
matcher modules must never import from the cluster or the service
above them, and its public query entry points must treat
caller-supplied documents as immutable (MongoDB drivers copy before
assigning ``_id`` for the same reason).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis.astutil import (
    FunctionNode,
    iter_functions,
    walk_within_function,
)
from repro.analysis.checker import Checker, ModuleInfo, register
from repro.analysis.findings import Finding, Severity

__all__ = ["DocstoreInvariantsChecker", "LAYERS"]

#: Architectural layers, lowest first.  A module may import only from
#: its own layer or below; the docstore (layer 2) importing the
#: service (layer 5) is the canonical violation.
LAYERS: Dict[str, int] = {
    "repro.errors": 0,
    "repro.cache": 0,
    "repro.geo": 1,
    "repro.sfc": 1,
    "repro.docstore": 2,
    "repro.cluster": 3,
    "repro.core": 4,
    "repro.datagen": 4,
    "repro.workloads": 4,
    "repro.service": 5,
    "repro.analysis": 6,
    "repro.cli": 6,
    "repro": 6,
}

#: Method calls that mutate a mapping or sequence in place.
PARAM_MUTATORS: Set[str] = {
    "add",
    "append",
    "clear",
    "extend",
    "insert",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "update",
}


def _layer_of(package: str) -> Optional[int]:
    """The layer of a dotted module name, or None when unknown."""
    parts = package.split(".")
    for width in (2, 1):
        key = ".".join(parts[:width])
        if key in LAYERS:
            return LAYERS[key]
    return None


@register
class DocstoreInvariantsChecker(Checker):
    """DS rules: layering and no mutation of caller-supplied documents."""

    name = "docstore-invariants"
    description = (
        "lower layers never import upper layers; public docstore entry "
        "points never mutate caller-supplied documents"
    )
    rules = {
        "DS001": (
            "import from a higher architectural layer (e.g. docstore "
            "importing cluster or service)"
        ),
        "DS002": (
            "public docstore entry point mutates a caller-supplied "
            "argument; copy before modifying"
        ),
    }
    rule_details = {
        "DS001": (
            "repro.docstore is the storage engine; importing the "
            "service or cluster layers above it inverts the "
            "dependency arrow and makes the engine untestable in "
            "isolation.  Move the shared code down, or pass the "
            "dependency in."
        ),
        "DS002": (
            "A public docstore entry point that mutates its argument "
            "surprises every caller that reuses the document — the "
            "service layer batches and retries inserts.  Copy before "
            "modifying."
        ),
    }
    rule_levels = {
        "DS001": Severity.ERROR,
        "DS002": Severity.ERROR,
    }
    help_uri = "DESIGN.md#rule-catalog"

    def check(self, module: ModuleInfo) -> List[Finding]:
        """Run all DS rules over one module."""
        findings: List[Finding] = []
        findings.extend(self._check_layering(module))
        if module.package.startswith("repro.docstore"):
            for qual, func, _cls in iter_functions(module.tree):
                findings.extend(
                    self._check_param_mutation(module, qual, func)
                )
        return findings

    # -- DS001 -----------------------------------------------------------------

    def _check_layering(self, module: ModuleInfo) -> List[Finding]:
        importer_layer = _layer_of(module.package)
        if importer_layer is None:
            return []
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            imported: List[str] = []
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module is not None:
                    imported = [node.module]
            for name in imported:
                target_layer = _layer_of(name)
                if target_layer is None or target_layer <= importer_layer:
                    continue
                findings.append(
                    Finding(
                        rule_id="DS001",
                        severity=Severity.ERROR,
                        message=(
                            "%s (layer %d) imports %s (layer %d); lower "
                            "layers must not depend on upper layers"
                            % (
                                module.package,
                                importer_layer,
                                name,
                                target_layer,
                            )
                        ),
                        path=module.path,
                        line=node.lineno,
                        col=node.col_offset,
                    )
                )
        return findings

    # -- DS002 -----------------------------------------------------------------

    def _check_param_mutation(
        self, module: ModuleInfo, qual: str, func: FunctionNode
    ) -> List[Finding]:
        if any(part.startswith("_") for part in qual.split(".")):
            return []
        args = func.args
        params = {
            a.arg
            for a in (args.posonlyargs + args.args + args.kwonlyargs)
            if a.arg not in ("self", "cls")
        }
        if not params:
            return []
        candidates = params - self._rebound_names(func)
        if not candidates:
            return []
        findings: List[Finding] = []
        for node in walk_within_function(func):
            name = self._mutated_param(node, candidates)
            if name is None:
                continue
            findings.append(
                Finding(
                    rule_id="DS002",
                    severity=Severity.ERROR,
                    message=(
                        "public docstore entry point mutates "
                        "caller-supplied argument %r; copy it first "
                        "(callers own their documents)" % name
                    ),
                    path=module.path,
                    line=getattr(node, "lineno", func.lineno),
                    col=getattr(node, "col_offset", 0),
                    symbol=qual,
                )
            )
        return findings

    @staticmethod
    def _rebound_names(func: FunctionNode) -> Set[str]:
        """Names rebound in the function (a rebound param is a copy)."""
        rebound: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        rebound.add(target.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for sub in ast.walk(node.target):
                    if isinstance(sub, ast.Name):
                        rebound.add(sub.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        for sub in ast.walk(item.optional_vars):
                            if isinstance(sub, ast.Name):
                                rebound.add(sub.id)
        return rebound

    @staticmethod
    def _mutated_param(
        node: ast.AST, params: Set[str]
    ) -> Optional[str]:
        """The parameter a node mutates in place, if any."""

        def param_subscript(target: ast.expr) -> Optional[str]:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in params
            ):
                return target.value.id
            return None

        if isinstance(node, ast.Assign):
            for target in node.targets:
                name = param_subscript(target)
                if name is not None:
                    return name
        elif isinstance(node, ast.AugAssign):
            return param_subscript(node.target)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                name = param_subscript(target)
                if name is not None:
                    return name
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in PARAM_MUTATORS
                and isinstance(func.value, ast.Name)
                and func.value.id in params
            ):
                return func.value.id
        return None
