"""FS: crash-consistency rules over the filesystem-effect model.

Built on :mod:`repro.analysis.fsmodel`, which extracts an ordered
filesystem-effect sequence per function and splices callee effects in
through the PR-3 call graph.  These rules machine-check the ordering
invariants PR 6's review enforced by hand:

* **FS001** — a locally-opened write handle whose data is never
  fsync-covered before the function succeeds.  Durability that stops
  at the page cache is not durability; an acknowledged write behind
  such a handle dies with the machine, not just the process.
* **FS002** — ``os.replace`` (the commit point of every atomic-publish
  protocol here) followed by a dependent delete with no directory
  fsync in between.  A crash can then resurrect the *old* directory
  entry while the files the old state needs are already gone — the
  exact resurrected-manifest/orphaned-run bug from the PR-6 review.
* **FS003** — ``close()`` on a handle drawn from a lock-guarded shared
  collection, later unlinked.  Readers that snapshotted the collection
  still ``pread`` the handle; closing hands them a dead fd, or — worse
  — a recycled number pointing at the wrong file.  Retirement must
  unlink *without* closing.
* **FS004** — engine state rebound before the commit point it depends
  on.  Swapping the memtable/WAL (or run list) and *then* writing the
  manifest means a failure between the two makes acknowledged writes
  invisible.
* **FS005** — a temp-file suffix created somewhere but swept nowhere:
  a crash mid-publish strands the temp file forever.
* **FS006** (info) — an fsync executed while a contended lock is held.
  Correct, but every waiter behind that lock now queues behind a disk
  flush; the WAL's group-commit syncer exists precisely to avoid this.

The runtime trace oracle (:mod:`repro.sanitizer.fstrace`) observes the
same effect vocabulary live and cross-validates both directions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.checker import (
    ModuleInfo,
    ProjectChecker,
    ProjectContext,
    register,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.effects import Effect
from repro.analysis.fsmodel import FsFunctionSummary, FsModel

__all__ = ["FsConsistencyChecker"]


def _short(symbol: str) -> str:
    """Last two dotted components — enough to identify a function."""
    return ".".join(symbol.rsplit(".", 2)[-2:])


@register
class FsConsistencyChecker(ProjectChecker):
    """Whole-project crash-consistency analysis (FS rules)."""

    name = "fs-consistency"
    description = (
        "Crash-consistency ordering over filesystem effects: fsync "
        "coverage, rename/dirfsync/delete ordering, close-vs-unlink "
        "on reader-visible handles, commit-point ordering, temp-file "
        "sweeps."
    )
    rules = {
        "FS001": (
            "Data written to a local file handle is not covered by an "
            "fsync before the success path returns."
        ),
        "FS002": (
            "os.replace/rename is followed by a dependent delete with "
            "no directory fsync in between; a crash can resurrect the "
            "old state after its files are gone."
        ),
        "FS003": (
            "close() on a handle drawn from a lock-guarded shared "
            "collection that concurrent readers may still pread; "
            "retire by unlinking without closing."
        ),
        "FS004": (
            "Engine state is rebound before the os.replace commit "
            "point it depends on; a failure between the two loses "
            "acknowledged writes."
        ),
        "FS005": (
            "Temp-file suffix is created but no recovery sweep "
            "removes it; a crash mid-publish strands the file."
        ),
        "FS006": (
            "fsync executed while a contended lock is held; every "
            "waiter behind the lock queues behind the disk flush."
        ),
    }
    rule_details = {
        "FS001": (
            "A write the function never fsyncs lives only in the page "
            "cache; a crash after the success path returns loses data "
            "the caller was told is safe.  fsync the handle (directly "
            "or via a helper the call graph can see) before "
            "returning, on the path that reports success."
        ),
        "FS002": (
            "os.replace makes the new name visible but only a fsync "
            "of the *directory* makes the rename durable.  Deleting "
            "the old state (say, a covered WAL) before that fsync "
            "means a crash can roll the rename back after the only "
            "copy of the data is gone.  Order: replace, dirfsync, "
            "then delete."
        ),
        "FS003": (
            "Immutable runs are read via pread on a shared handle; "
            "readers snapshot the run list and read outside the "
            "lock.  Retiring a run by close() hands every snapshot "
            "holder a dead descriptor — or a recycled one pointing "
            "at an unrelated file.  Retire by unlinking only; the "
            "inode dies with the last descriptor."
        ),
        "FS004": (
            "The manifest replace is the commit point of a flush.  "
            "Rebinding engine state (memtable, run list) or deleting "
            "the WAL before it means a crash in the window leaves "
            "durable-looking state the manifest never heard of — "
            "recovery sweeps it and acknowledged writes vanish.  "
            "Commit first, swap after."
        ),
        "FS005": (
            "A temp-file suffix written by the publish path but "
            "never matched by a recovery sweep strands files on "
            "every crash mid-publish, growing the directory forever. "
            " Sweep the suffix during recovery."
        ),
        "FS006": (
            "An fsync can take tens of milliseconds; holding a "
            "contended lock across it queues every waiter behind the "
            "disk.  Flush outside the lock, as the WAL group-commit "
            "path does."
        ),
    }
    rule_levels = {
        "FS001": Severity.ERROR,
        "FS002": Severity.ERROR,
        "FS003": Severity.ERROR,
        "FS004": Severity.ERROR,
        "FS005": Severity.WARNING,
        "FS006": Severity.INFO,
    }
    help_uri = "DESIGN.md#filesystem-crash-consistency-rules"

    def check_project(
        self,
        modules: Sequence[ModuleInfo],
        context: Optional[ProjectContext] = None,
    ) -> List[Finding]:
        if context is None:
            context = ProjectContext(modules)
        model = context.fs_model
        if not model.summaries:
            return []
        findings: List[Finding] = []
        for symbol in sorted(model.summaries):
            summary = model.summaries[symbol]
            findings.extend(self._fs001(summary))
            inlined = model.inlined_effects(symbol)
            findings.extend(self._fs002(summary, inlined))
            findings.extend(self._fs003(summary))
            findings.extend(self._fs004(summary, inlined))
        findings.extend(self._fs005(model))
        findings.extend(self._fs006(model, context))
        return findings

    # -- FS001: unsynced write handles -------------------------------------------

    def _fs001(self, summary: FsFunctionSummary) -> List[Finding]:
        findings: List[Finding] = []
        for handle in summary.handles:
            if (
                handle.writes == 0
                or handle.escaped
                or handle.fsynced_after_write
            ):
                continue
            findings.append(
                Finding(
                    rule_id="FS001",
                    severity=Severity.ERROR,
                    message=(
                        "data written to %r (opened line %d, mode %r) "
                        "is never fsync-covered before %s succeeds; a "
                        "crash after the success return loses it from "
                        "the page cache"
                        % (
                            handle.name,
                            handle.opened_line,
                            handle.mode,
                            _short(summary.symbol),
                        )
                    ),
                    path=summary.info.module.path,
                    line=handle.last_write_line or handle.opened_line,
                    col=0,
                    symbol=summary.info.qual,
                )
            )
        return findings

    # -- FS002: replace without dirfsync before dependent deletes ----------------

    def _fs002(
        self, summary: FsFunctionSummary, inlined: List[Effect]
    ) -> List[Finding]:
        findings: List[Finding] = []
        pending: Optional[Effect] = None
        for effect in inlined:
            if effect.in_handler:
                continue
            if effect.kind == "replace":
                pending = effect
            elif effect.kind == "dirfsync":
                pending = None
            elif (
                effect.kind == "unlink"
                and pending is not None
                and not effect.inlined
            ):
                findings.append(
                    Finding(
                        rule_id="FS002",
                        severity=Severity.ERROR,
                        message=(
                            "delete of %s at line %d follows the "
                            "os.replace of %s (line %d) with no "
                            "directory fsync in between; a crash can "
                            "resurrect the pre-rename state after "
                            "this file is gone"
                            % (
                                effect.target,
                                effect.line,
                                pending.target,
                                pending.line,
                            )
                        ),
                        path=summary.info.module.path,
                        line=effect.line,
                        col=effect.col,
                        symbol=summary.info.qual,
                    )
                )
                pending = None
        return findings

    # -- FS003: close on a reader-visible handle before unlink -------------------

    def _fs003(self, summary: FsFunctionSummary) -> List[Finding]:
        findings: List[Finding] = []
        closed_visible: Dict[str, Effect] = {}
        for effect in summary.effects:
            if effect.in_handler:
                continue
            if (
                effect.kind == "close"
                and effect.detail == "reader-visible"
            ):
                closed_visible[effect.target] = effect
            elif effect.kind == "unlink":
                for name, close_effect in closed_visible.items():
                    if effect.target == name or effect.target.startswith(
                        name + "."
                    ):
                        findings.append(
                            Finding(
                                rule_id="FS003",
                                severity=Severity.ERROR,
                                message=(
                                    "%s is closed (line %d) and then "
                                    "unlinked (line %d), but it was "
                                    "drawn from a lock-guarded shared "
                                    "collection: a reader holding a "
                                    "pre-swap snapshot still preads "
                                    "this fd — close hands it EBADF "
                                    "or a recycled descriptor; unlink "
                                    "without closing instead"
                                    % (
                                        name,
                                        close_effect.line,
                                        effect.line,
                                    )
                                ),
                                path=summary.info.module.path,
                                line=effect.line,
                                col=effect.col,
                                symbol=summary.info.qual,
                            )
                        )
        return findings

    # -- FS004: state swap before the commit point -------------------------------

    def _fs004(
        self, summary: FsFunctionSummary, inlined: List[Effect]
    ) -> List[Finding]:
        replace_lines = [
            effect.line
            for effect in inlined
            if effect.kind == "replace" and not effect.in_handler
        ]
        if not replace_lines:
            return []
        last_replace = max(replace_lines)
        findings: List[Finding] = []
        for attr, line, col, in_handler in summary.attr_writes:
            if in_handler:
                continue
            read_line = summary.attr_reads.get(attr)
            if read_line is None or read_line >= line:
                continue  # not the read-swap-commit shape
            if line >= last_replace:
                continue  # swap is already past the commit point
            findings.append(
                Finding(
                    rule_id="FS004",
                    severity=Severity.ERROR,
                    message=(
                        "self.%s is rebound at line %d before the "
                        "os.replace commit point at line %d; a "
                        "failure between the two leaves the "
                        "in-memory state ahead of what is durable, "
                        "making acknowledged writes invisible"
                        % (attr, line, last_replace)
                    ),
                    path=summary.info.module.path,
                    line=line,
                    col=col,
                    symbol=summary.info.qual,
                )
            )
        return findings

    # -- FS005: temp suffixes without a recovery sweep ---------------------------

    def _fs005(self, model: FsModel) -> List[Finding]:
        swept: Set[str] = set()
        for summary in model.summaries.values():
            if any(e.kind == "unlink" for e in summary.effects):
                swept |= summary.sweep_suffixes
        findings: List[Finding] = []
        for symbol in sorted(model.summaries):
            summary = model.summaries[symbol]
            for suffix, line in summary.temp_suffixes:
                if suffix in swept:
                    continue
                findings.append(
                    Finding(
                        rule_id="FS005",
                        severity=Severity.WARNING,
                        message=(
                            "temp files with suffix %r are created "
                            "here but no recovery sweep "
                            "(endswith+unlink) removes them; a crash "
                            "mid-publish strands the file forever"
                            % suffix
                        ),
                        path=summary.info.module.path,
                        line=line,
                        col=0,
                        symbol=summary.info.qual,
                    )
                )
        return findings

    # -- FS006: fsync under a contended lock -------------------------------------

    def _fs006(
        self, model: FsModel, context: ProjectContext
    ) -> List[Finding]:
        locks = context.locks
        contended: Set[str] = set()
        for edge in locks.graph.edges:
            contended.add(edge.src)
            contended.add(edge.dst)
        findings: List[Finding] = []
        for symbol in sorted(model.summaries):
            summary = model.summaries[symbol]
            fsyncs = [
                e
                for e in summary.effects
                if e.kind in ("fsync", "dirfsync") and not e.in_handler
            ]
            if not fsyncs:
                continue
            held = self._held_contended(
                symbol, summary, fsyncs, contended, locks.held_in
            )
            if held is None:
                continue
            lock_name, witness = held
            findings.append(
                Finding(
                    rule_id="FS006",
                    severity=Severity.INFO,
                    message=(
                        "fsync in %s runs while %s is held (a lock "
                        "on the project's lock-order graph); every "
                        "waiter behind it queues behind this disk "
                        "flush — consider syncing outside the lock "
                        "(group commit)"
                        % (_short(symbol), _short(lock_name))
                    ),
                    path=summary.info.module.path,
                    line=witness.line,
                    col=witness.col,
                    symbol=summary.info.qual,
                )
            )
        return findings

    def _held_contended(
        self,
        symbol: str,
        summary: FsFunctionSummary,
        fsyncs: List[Effect],
        contended: Set[str],
        held_in: Dict[str, Set[Tuple[str, str]]],
    ) -> Optional[Tuple[str, Effect]]:
        """(lock, witness effect) when an fsync runs under a hot lock."""
        class_symbol = summary.info.class_symbol
        for effect in fsyncs:
            if effect.under_lock and class_symbol is not None:
                key = "%s.%s" % (class_symbol, effect.under_lock)
                if key in contended:
                    return key, effect
        ambient = [
            key
            for key, _mode in held_in.get(symbol, set())
            if key in contended
        ]
        if ambient:
            return sorted(ambient)[0], fsyncs[0]
        return None
