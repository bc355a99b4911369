"""The finding model every checker reports through.

A :class:`Finding` pins a rule violation to ``file:line:col`` for the
human reading the report, but its *identity* for baseline matching is
the :attr:`~Finding.fingerprint` — rule id, file, enclosing symbol,
and an ordinal among same-rule findings in that symbol — so baselines
survive unrelated edits that shift line numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, List, Optional, Sequence

__all__ = ["Finding", "Severity", "assign_ordinals", "rule_selected"]


class Severity(str, Enum):
    """How bad a finding is; errors and warnings both gate CI."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule_id: str
    severity: Severity
    message: str
    path: str
    line: int
    col: int
    symbol: str = "<module>"
    #: Position among same-rule findings in the same symbol; assigned
    #: by :func:`assign_ordinals` so fingerprints are line-independent.
    ordinal: int = 0

    @property
    def fingerprint(self) -> str:
        """The line-number-independent identity used by baselines."""
        return "::".join(
            [self.rule_id, self.path, self.symbol, str(self.ordinal)]
        )

    def render(self) -> str:
        """One human-readable report line."""
        return "%s:%d:%d: %s %s [%s] %s" % (
            self.path,
            self.line,
            self.col,
            self.rule_id,
            self.severity.value,
            self.symbol,
            self.message,
        )

    def as_dict(self) -> dict:
        """The finding as a JSON-ready mapping."""
        return {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "fingerprint": self.fingerprint,
        }


def assign_ordinals(findings: List[Finding]) -> List[Finding]:
    """Number same-rule findings within each symbol by source order.

    Returns a new list sorted by location with each finding's
    :attr:`~Finding.ordinal` set, which makes fingerprints stable under
    edits elsewhere in the file.
    """
    ordered = sorted(
        findings, key=lambda f: (f.path, f.line, f.col, f.rule_id)
    )
    counters: Dict[tuple, int] = {}
    out: List[Finding] = []
    for finding in ordered:
        key = (finding.rule_id, finding.path, finding.symbol)
        ordinal = counters.get(key, 0)
        counters[key] = ordinal + 1
        out.append(replace(finding, ordinal=ordinal))
    return out


def rule_selected(rule_id: str, select: Optional[Sequence[str]]) -> bool:
    """Whether a ``--select`` prefix list names the rule (none = all)."""
    return not select or any(rule_id.startswith(p) for p in select)
