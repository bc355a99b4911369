"""Baseline files: accepted findings with recorded justifications.

A baseline turns the analyzer into a ratchet: every pre-existing,
deliberately-accepted finding is recorded once with a one-line
justification, and from then on only *new* findings fail the build.
Entries whose finding disappears (the code was fixed) become *stale*
and are reported so the file can be pruned — rewriting with
``--write-baseline`` drops them while preserving the justifications of
entries that still match.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding, rule_selected

__all__ = ["Baseline", "BaselineEntry", "PLACEHOLDER_JUSTIFICATION"]

#: Justification written for entries added by ``--write-baseline``;
#: humans are expected to replace it before committing.
PLACEHOLDER_JUSTIFICATION = "TODO: justify this accepted finding"


@dataclass(frozen=True)
class BaselineEntry:
    """One accepted finding and why it is acceptable."""

    fingerprint: str
    rule: str
    path: str
    symbol: str
    justification: str

    def as_dict(self) -> dict:
        """The entry as a JSON-ready mapping."""
        return {
            "fingerprint": self.fingerprint,
            "rule": self.rule,
            "path": self.path,
            "symbol": self.symbol,
            "justification": self.justification,
        }


class Baseline:
    """The set of accepted findings, keyed by fingerprint."""

    def __init__(self, entries: Sequence[BaselineEntry] = ()) -> None:
        self.entries: Dict[str, BaselineEntry] = {
            e.fingerprint: e for e in entries
        }

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline."""
        file_path = Path(path)
        if not file_path.exists():
            return cls()
        payload = json.loads(file_path.read_text(encoding="utf-8"))
        entries = [
            BaselineEntry(
                fingerprint=raw["fingerprint"],
                rule=raw.get("rule", raw["fingerprint"].split("::")[0]),
                path=raw.get("path", ""),
                symbol=raw.get("symbol", ""),
                justification=raw.get("justification", ""),
            )
            for raw in payload.get("entries", [])
        ]
        return cls(entries)

    def save(self, path: str | Path) -> None:
        """Write the baseline as deterministic, diff-friendly JSON."""
        payload = {
            "version": 1,
            "entries": [
                entry.as_dict()
                for entry in sorted(
                    self.entries.values(), key=lambda e: e.fingerprint
                )
            ],
        }
        Path(path).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )

    def split(
        self,
        findings: Sequence[Finding],
        select: Optional[Sequence[str]] = None,
    ) -> Tuple[List[Finding], List[Finding], List[BaselineEntry]]:
        """Partition findings into ``(new, suppressed, stale_entries)``.

        New findings have no baseline entry; suppressed findings match
        one; stale entries match no current finding.  ``select`` is the
        run's rule selection: a run that never looked for a rule says
        nothing about its entries, so only selected rules' entries can
        be stale.
        """
        new: List[Finding] = []
        suppressed: List[Finding] = []
        seen: set = set()
        for finding in findings:
            if finding.fingerprint in self.entries:
                suppressed.append(finding)
                seen.add(finding.fingerprint)
            else:
                new.append(finding)
        stale = [
            entry
            for fingerprint, entry in sorted(self.entries.items())
            if fingerprint not in seen and rule_selected(entry.rule, select)
        ]
        return new, suppressed, stale

    def unjustified_entries(self) -> List[BaselineEntry]:
        """Entries whose justification is empty or the placeholder.

        A baseline is only a ratchet if every accepted finding records
        *why* it was accepted; these entries record nothing.
        """
        return [
            entry
            for _fingerprint, entry in sorted(self.entries.items())
            if not entry.justification.strip()
            or entry.justification == PLACEHOLDER_JUSTIFICATION
        ]

    def missing_file_entries(self, root: Path) -> List[BaselineEntry]:
        """Entries whose recorded file no longer exists under ``root``.

        These can never match a finding again (the analyzer only
        reports on files it parsed), so they are dead weight — warned
        about on every run and dropped by ``--write-baseline``.
        """
        return [
            entry
            for _fingerprint, entry in sorted(self.entries.items())
            if entry.path and not (root / entry.path).exists()
        ]

    def updated(
        self,
        findings: Sequence[Finding],
        select: Optional[Sequence[str]] = None,
    ) -> "Baseline":
        """A baseline accepting exactly the given findings.

        Justifications of entries that still match are preserved; new
        entries get :data:`PLACEHOLDER_JUSTIFICATION` for a human to
        replace.  Entries of rules outside the run's ``select`` are
        carried over untouched — the run did not judge them.
        """
        entries = [
            entry
            for entry in self.entries.values()
            if not rule_selected(entry.rule, select)
        ]
        for finding in findings:
            existing = self.entries.get(finding.fingerprint)
            entries.append(
                BaselineEntry(
                    fingerprint=finding.fingerprint,
                    rule=finding.rule_id,
                    path=finding.path,
                    symbol=finding.symbol,
                    justification=(
                        existing.justification
                        if existing is not None
                        else PLACEHOLDER_JUSTIFICATION
                    ),
                )
            )
        return Baseline(entries)

    def __len__(self) -> int:
        return len(self.entries)
