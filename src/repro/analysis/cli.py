"""The ``python -m repro.analysis`` command line.

Runs the registered checkers over the given paths, subtracts the
baseline, prints what remains, and exits non-zero when *new* findings
exist — which is exactly what CI gates on.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, TextIO

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.changed import (
    DEFAULT_REF,
    ChangedFilesError,
    changed_files,
)
from repro.analysis.checker import registered_checkers, run_analysis
from repro.analysis.findings import Finding
from repro.analysis.sarif import to_sarif

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The analyzer's argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Project-specific static analysis: lock discipline, lock "
            "order, crash consistency, and cache coherence."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root paths are resolved against (default: cwd)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="JSON baseline of accepted findings with justifications",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=(
            "rewrite the baseline to accept all current findings, "
            "keeping existing justifications and dropping stale entries"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help=(
            "comma-separated rule-id prefixes (e.g. LD,FS001): only "
            "checkers owning a selected rule run, and the baseline is "
            "judged on the selected rules' entries only"
        ),
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help=(
            "report only findings in files changed against "
            "--changed-ref, plus their transitive call-graph dependents"
        ),
    )
    parser.add_argument(
        "--changed-ref",
        default=DEFAULT_REF,
        metavar="REF",
        help=(
            "git ref --changed-only diffs the working tree against "
            "(default: %s)" % DEFAULT_REF
        ),
    )
    parser.add_argument(
        "--fail-on-stale",
        action="store_true",
        help="also exit non-zero when baseline entries no longer match",
    )
    parser.add_argument(
        "--require-justification",
        action="store_true",
        help=(
            "exit non-zero when any baseline entry has an empty or "
            "placeholder justification"
        ),
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help=(
            "print wall-clock seconds per checker phase after the "
            "report, so CI can spot slow rules"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every checker and rule, then exit",
    )
    return parser


def _list_rules(out: TextIO) -> None:
    for name, cls in sorted(registered_checkers().items()):
        out.write("%s — %s\n" % (name, cls.description))
        for rule_id, text in sorted(cls.rules.items()):
            out.write("  %s  %s\n" % (rule_id, text))


def _render_text(
    out: TextIO,
    new: List[Finding],
    suppressed_count: int,
    stale: List[str],
    missing: List[BaselineEntry],
    unjustified: List[BaselineEntry],
) -> None:
    for finding in new:
        out.write(finding.render() + "\n")
    for fingerprint in stale:
        out.write(
            "stale baseline entry (no longer matches): %s\n" % fingerprint
        )
    for entry in missing:
        out.write(
            "warning: baseline entry for missing file %s: %s\n"
            % (entry.path, entry.fingerprint)
        )
    for entry in unjustified:
        out.write(
            "baseline entry lacks a justification: %s\n"
            % entry.fingerprint
        )
    out.write(
        "%d new finding(s), %d baselined, %d stale baseline entr%s\n"
        % (
            len(new),
            suppressed_count,
            len(stale),
            "y" if len(stale) == 1 else "ies",
        )
    )


def _render_stats(out: TextIO, timings: dict) -> None:
    """Per-phase wall-clock table, slowest first."""
    out.write("per-checker timing (seconds):\n")
    for phase, seconds in sorted(
        timings.items(), key=lambda item: -item[1]
    ):
        out.write("  %-28s %8.3f\n" % (phase, seconds))


def _render_json(
    out: TextIO,
    new: List[Finding],
    suppressed: List[Finding],
    stale: List[str],
    missing: List[BaselineEntry],
    unjustified: List[BaselineEntry],
) -> None:
    payload = {
        "findings": [f.as_dict() for f in new],
        "suppressed": [f.as_dict() for f in suppressed],
        "staleBaselineEntries": stale,
        "missingFileEntries": [e.fingerprint for e in missing],
        "unjustifiedEntries": [e.fingerprint for e in unjustified],
        "summary": {
            "new": len(new),
            "suppressed": len(suppressed),
            "stale": len(stale),
        },
    }
    out.write(json.dumps(payload, indent=2) + "\n")


def main(
    argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None
) -> int:
    """Run the analyzer; returns the process exit code."""
    stream: TextIO = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _list_rules(stream)
        return 0
    root = Path(args.root).resolve()
    select = (
        [s for s in args.select.split(",") if s] if args.select else None
    )
    changed_scope = None
    if args.changed_only:
        if args.write_baseline:
            # A scoped run cannot see every finding, so rewriting the
            # baseline from it would silently drop the out-of-scope
            # entries.
            stream.write(
                "--write-baseline cannot be combined with "
                "--changed-only\n"
            )
            return 2
        try:
            changed_scope = changed_files(root, args.changed_ref)
        except ChangedFilesError as exc:
            stream.write("error: %s\n" % exc)
            return 2
    timings: Optional[dict] = {} if args.stats else None
    findings = run_analysis(
        args.paths,
        root=root,
        select=select,
        changed_scope=changed_scope,
        stats_out=timings,
    )
    baseline = Baseline()
    baseline_path: Optional[Path] = None
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
        if not baseline_path.is_absolute():
            baseline_path = root / baseline_path
        baseline = Baseline.load(baseline_path)
    new, suppressed, stale_entries = baseline.split(findings, select)
    # A changed-only run never reported the out-of-scope files, so
    # their baseline entries are not evidence of staleness.
    stale = (
        []
        if args.changed_only
        else [entry.fingerprint for entry in stale_entries]
    )
    missing = baseline.missing_file_entries(root)
    unjustified = (
        baseline.unjustified_entries()
        if args.require_justification
        else []
    )
    if args.write_baseline:
        if baseline_path is None:
            stream.write("--write-baseline requires --baseline\n")
            return 2
        # ``updated`` keeps only entries matching a current finding,
        # which also drops the missing-file ones: a file the analyzer
        # never parsed cannot produce findings.
        rewritten = baseline.updated(findings, select)
        rewritten.save(baseline_path)
        stream.write(
            "baseline rewritten: %d entr%s (%d new, %d stale dropped, "
            "%d for missing files)\n"
            % (
                len(rewritten),
                "y" if len(rewritten) == 1 else "ies",
                len(new),
                len(stale),
                len(missing),
            )
        )
        return 0
    if args.format == "json":
        _render_json(stream, new, suppressed, stale, missing, unjustified)
    elif args.format == "sarif":
        sarif_log = to_sarif(new, suppressed, baseline)
        stream.write(json.dumps(sarif_log, indent=2) + "\n")
    else:
        _render_text(
            stream, new, len(suppressed), stale, missing, unjustified
        )
    if timings is not None:
        _render_stats(stream, timings)
    if new:
        return 1
    if unjustified:
        return 1
    if stale and args.fail_on_stale:
        return 1
    return 0
