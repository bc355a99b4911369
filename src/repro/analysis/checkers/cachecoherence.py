"""CC: cache-coherence rules over the stale-cache model.

Built on :mod:`repro.analysis.cachemodel`, which discovers the
project's caches and version tokens and extracts ordered
cache-coherence effect sequences per function, spliced through the
PR-3 call graph.  These rules machine-check the invalidation contract
PR 4 established by hand:

* **CC001** — a cache read with no version token in its key and no
  other freshness story.  Pure memos (keys capture the full input),
  stamp-validated reads (the ``stamp=`` of ``StampedLRUCache``), and
  push-invalidated caches (an owner explicitly drops entries on every
  mutation) are exempt; everything else is a stale hit waiting for
  the first metadata change.
* **CC002** — a cache fill whose key was built from a version captured
  *after* the governed data was read.  A mutation sliding into that
  window stores stale data under the fresh version's key, where it is
  served forever — worse than unkeyed, because nothing ever evicts it.
* **CC003** — a mutation of governed state that reaches no version
  bump or explicit invalidation on some path, including unwind: a
  mutation whose covering bump sits after a call that may raise is
  only safe when the bump lives in a ``finally``.
* **CC004** — the bump published *before* the mutation it covers is
  visible, with no later re-bump.  Readers that miss on the new
  version can fill from the not-yet-mutated state and keep serving it
  under the new key.
* **CC005** (warning) — a cache filled under a lock that is released
  before the fill path's version check runs: the check validates a
  moment that ended when the lock dropped.
* **CC006** (info) — a value derived from one shard's state, shared
  across every shard's closure without a shard id in any key.  Often
  deliberate (shard-independent plan bounds); flagged so the sharing
  is consciously justified in the baseline.

The runtime epoch tracer (:mod:`repro.sanitizer.cachetrace`) observes
the same contract live and cross-validates both directions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.cachemodel import CacheFunctionSummary, CacheModel
from repro.analysis.checker import (
    ModuleInfo,
    ProjectChecker,
    ProjectContext,
    register,
)
from repro.analysis.effects import Effect
from repro.analysis.findings import Finding, Severity

__all__ = ["CacheCoherenceChecker"]


def _short(symbol: str) -> str:
    """Last two dotted components — enough to identify a function."""
    return ".".join(symbol.rsplit(".", 2)[-2:])


@register
class CacheCoherenceChecker(ProjectChecker):
    """Whole-project cache-coherence analysis (CC rules)."""

    name = "cache-coherence"
    description = (
        "every cache is version-keyed and every mutation of governed "
        "state reaches a version bump, on all paths including unwind"
    )
    rules = {
        "CC001": "cache read with no version token in its key",
        "CC002": (
            "cache key built from a version captured after the data "
            "it guards was read"
        ),
        "CC003": (
            "mutation of version-governed state reaches no version "
            "bump or invalidation on some path (including unwind)"
        ),
        "CC004": (
            "version bump published before the mutation it covers is "
            "visible"
        ),
        "CC005": (
            "cache filled under a lock released before the version "
            "check"
        ),
        "CC006": (
            "per-shard derived value shared across shard closures "
            "without a shard-id key component"
        ),
    }
    rule_details = {
        "CC001": (
            "The read path of this cache incorporates no version "
            "token (metadata_version, storage epoch, DDL generation) "
            "in its key, and the cache is neither a pure memo, nor "
            "stamp-validated at hit time, nor push-invalidated by its "
            "owners.  The first split/migration/DDL makes every entry "
            "stale, and stale routing or plan state silently returns "
            "wrong query results.  Key the read on the governing "
            "version, or validate/invalidate entries explicitly."
        ),
        "CC002": (
            "The version that keys this fill was captured after the "
            "governed data was read.  A concurrent mutation in that "
            "window bumps the version first, so the stale derivation "
            "is stored under the fresh key — and since version-keyed "
            "caches rely on the key space moving on, nothing ever "
            "evicts it.  Capture the version before reading the data "
            "it stamps."
        ),
        "CC003": (
            "This mutation of version-governed state can complete "
            "without the governing version bump or an explicit cache "
            "invalidation — on the fall-through path, or on unwind "
            "when a later statement raises first.  Version-keyed "
            "caches then keep serving pre-mutation state under the "
            "still-current key.  Bump the version (in a finally when "
            "calls separate mutation from bump) or invalidate the "
            "caches explicitly."
        ),
        "CC004": (
            "The version bump is published before the mutation it "
            "covers, with no later re-bump.  A reader that misses on "
            "the new version between the two fills its cache from the "
            "old state and keeps serving it under the new key.  Bump "
            "after the mutation is visible, or re-bump afterwards."
        ),
        "CC005": (
            "The cache entry is populated under a lock that is "
            "released before the version check on the same path runs, "
            "so the check validates state that may have changed since "
            "the fill.  Perform the check while the lock is held, or "
            "re-validate after reacquiring."
        ),
        "CC006": (
            "A value derived from one shard's state is captured by "
            "closures that run against every targeted shard, and no "
            "shard id distinguishes the consumers.  This is correct "
            "only when the value is genuinely shard-independent; "
            "justify that in the baseline or add a shard-id key "
            "component."
        ),
    }
    rule_levels = {
        "CC001": Severity.ERROR,
        "CC002": Severity.ERROR,
        "CC003": Severity.ERROR,
        "CC004": Severity.ERROR,
        "CC005": Severity.WARNING,
        "CC006": Severity.INFO,
    }
    help_uri = "DESIGN.md#cache-coherence-rules"

    def check_project(
        self,
        modules: Sequence[ModuleInfo],
        context: Optional[ProjectContext] = None,
    ) -> List[Finding]:
        if context is None:
            context = ProjectContext(modules)
        model = context.cache_model
        findings: List[Finding] = []
        push_invalidated = _push_invalidated_caches(model)
        for symbol in sorted(model.summaries):
            summary = model.summaries[symbol]
            inlined = model.inlined_effects(symbol)
            findings.extend(
                self._check_unkeyed_reads(
                    model, summary, push_invalidated
                )
            )
            findings.extend(self._check_key_skew(model, summary))
            findings.extend(
                self._check_bump_before_mutation(
                    model, summary, inlined
                )
            )
            findings.extend(
                self._check_unwind_window(model, summary, inlined)
            )
            findings.extend(self._check_lock_window(summary))
            findings.extend(self._check_shard_sharing(summary))
        findings.extend(self._check_missing_bumps(model))
        return findings

    # -- CC001 -------------------------------------------------------------------

    def _check_unkeyed_reads(
        self,
        model: CacheModel,
        summary: CacheFunctionSummary,
        push_invalidated: Set[str],
    ) -> List[Finding]:
        findings: List[Finding] = []
        for effect in summary.effects:
            if effect.kind != "read" or effect.keyed:
                continue
            cache = _cache_by_name(model, effect.target)
            if cache is None:
                continue
            if cache.pure_memo or cache.stamp_validated:
                continue
            if cache.name in push_invalidated:
                continue
            # The cache's own methods reading their own store are the
            # mechanism, not a use site.
            if summary.info.class_symbol == cache.class_symbol:
                continue
            findings.append(
                Finding(
                    rule_id="CC001",
                    severity=Severity.ERROR,
                    message=(
                        "%s is read with no version token in its key "
                        "and has no stamp validation, pure-memo "
                        "keying, or push invalidation — the first "
                        "metadata change makes every hit stale"
                        % effect.target
                    ),
                    path=summary.info.module.path,
                    line=effect.line,
                    col=effect.col,
                    symbol=summary.info.qual,
                )
            )
        return findings

    # -- CC002 -------------------------------------------------------------------

    def _check_key_skew(
        self, model: CacheModel, summary: CacheFunctionSummary
    ) -> List[Finding]:
        findings: List[Finding] = []
        governed = set(model.governing_tokens)
        if not governed:
            return findings
        for effect in summary.effects:
            if effect.kind != "fill" or not effect.keyed:
                continue
            if not effect.key_source.startswith("attr:"):
                continue  # "param": the caller fixed the pairing
            capture_line = int(effect.key_source.split(":", 1)[1])
            earlier_reads = [
                (attr, line)
                for attr, line in summary.field_reads
                if attr in governed and line < capture_line
            ]
            if not earlier_reads:
                continue
            attr, line = min(earlier_reads, key=lambda item: item[1])
            findings.append(
                Finding(
                    rule_id="CC002",
                    severity=Severity.ERROR,
                    message=(
                        "%s fill keys on a version captured at line "
                        "%d, after governed field %r was read at line "
                        "%d — a mutation in that window stores stale "
                        "data under the fresh key, permanently"
                        % (effect.target, capture_line, attr, line)
                    ),
                    path=summary.info.module.path,
                    line=effect.line,
                    col=effect.col,
                    symbol=summary.info.qual,
                )
            )
        return findings

    # -- CC003 (missing bump, with caller obligations) ---------------------------

    def _check_missing_bumps(self, model: CacheModel) -> List[Finding]:
        findings: List[Finding] = []
        satisfied_cache: Dict[str, bool] = {}
        for symbol in sorted(model.summaries):
            summary = model.summaries[symbol]
            inlined = model.inlined_effects(symbol)
            for index, effect in enumerate(summary.effects):
                if effect.kind != "mutate":
                    continue
                if effect.in_handler or effect.detail == "fresh":
                    continue
                tokens = model.governing_tokens.get(effect.target)
                if not tokens:
                    continue
                if _covered_after(
                    inlined, effect.line, effect.col, tokens
                ):
                    continue
                if _bumped_before(
                    inlined, effect.line, effect.col, tokens
                ):
                    continue  # mis-ordered, not missing: CC004 reports it
                if _callers_cover(
                    model,
                    symbol,
                    tokens,
                    satisfied_cache,
                    frozenset((symbol,)),
                ):
                    continue
                findings.append(
                    Finding(
                        rule_id="CC003",
                        severity=Severity.ERROR,
                        message=(
                            "mutation of %r (governed by %s) reaches "
                            "no version bump or invalidation in %s "
                            "or any caller"
                            % (
                                effect.target,
                                "/".join(sorted(tokens)),
                                _short(symbol),
                            )
                        ),
                        path=summary.info.module.path,
                        line=effect.line,
                        col=effect.col,
                        symbol=summary.info.qual,
                    )
                )
        return findings

    # -- CC003 (unwind window) ---------------------------------------------------

    def _check_unwind_window(
        self,
        model: CacheModel,
        summary: CacheFunctionSummary,
        inlined: List[Effect],
    ) -> List[Finding]:
        findings: List[Finding] = []
        reported: Set[Tuple[int, int]] = set()
        for index, effect in enumerate(inlined):
            if effect.kind != "mutate":
                continue
            if effect.in_handler or effect.detail == "fresh":
                continue
            tokens = model.governing_tokens.get(effect.target)
            if not tokens:
                continue
            bump_index: Optional[int] = None
            for later in range(index + 1, len(inlined)):
                candidate = inlined[later]
                if (
                    candidate.kind in ("bump", "invalidate")
                    and not candidate.in_handler
                    and (
                        candidate.kind == "invalidate"
                        or candidate.detail in tokens
                    )
                ):
                    bump_index = later
                    break
            if bump_index is None:
                continue  # CC003-missing handles the uncovered case
            bump = inlined[bump_index]
            if (bump.line, bump.col) == (effect.line, effect.col):
                # Mutation and bump collapsed into one call site: the
                # whole window lives inside the callee and is reported
                # there, where the fix belongs.
                continue
            if bump.in_finally:
                continue  # unwind-safe by construction
            risky = any(
                inlined[mid].kind == "call"
                for mid in range(index + 1, bump_index)
            )
            if not risky:
                continue
            anchor = (effect.line, effect.col)
            if anchor in reported:
                continue
            reported.add(anchor)
            findings.append(
                Finding(
                    rule_id="CC003",
                    severity=Severity.ERROR,
                    message=(
                        "mutation of %r is separated from its %s "
                        "bump by call(s) that may raise — an unwind "
                        "leaves the mutation visible with no bump; "
                        "move the bump into a finally"
                        % (effect.target, "/".join(sorted(tokens)))
                    ),
                    path=summary.info.module.path,
                    line=effect.line,
                    col=effect.col,
                    symbol=summary.info.qual,
                )
            )
        return findings

    # -- CC004 -------------------------------------------------------------------

    def _check_bump_before_mutation(
        self,
        model: CacheModel,
        summary: CacheFunctionSummary,
        inlined: List[Effect],
    ) -> List[Finding]:
        findings: List[Finding] = []
        reported: Set[Tuple[int, int]] = set()
        for index, effect in enumerate(inlined):
            if effect.kind != "bump":
                continue
            if effect.in_handler:
                continue
            token = effect.detail
            for later in range(index + 1, len(inlined)):
                mutate = inlined[later]
                if mutate.kind != "mutate":
                    continue
                if mutate.in_handler or mutate.detail == "fresh":
                    continue
                if token not in model.governing_tokens.get(
                    mutate.target, set()
                ):
                    continue
                if (effect.line, effect.col) == (
                    mutate.line,
                    mutate.col,
                ):
                    continue  # one call site: judged in the callee
                rebumped = any(
                    inlined[after].kind == "bump"
                    and inlined[after].detail == token
                    and not inlined[after].in_handler
                    for after in range(later + 1, len(inlined))
                )
                if rebumped:
                    continue
                anchor = (mutate.line, mutate.col)
                if anchor in reported:
                    continue
                reported.add(anchor)
                findings.append(
                    Finding(
                        rule_id="CC004",
                        severity=Severity.ERROR,
                        message=(
                            "%s is bumped at line %d before the "
                            "mutation of %r it covers, with no later "
                            "re-bump — a reader filling between the "
                            "two caches pre-mutation state under the "
                            "new version"
                            % (token, effect.line, mutate.target)
                        ),
                        path=summary.info.module.path,
                        line=mutate.line,
                        col=mutate.col,
                        symbol=summary.info.qual,
                    )
                )
        return findings

    # -- CC005 -------------------------------------------------------------------

    def _check_lock_window(
        self, summary: CacheFunctionSummary
    ) -> List[Finding]:
        findings: List[Finding] = []
        for index, effect in enumerate(summary.effects):
            if effect.kind != "fill" or not effect.under_lock:
                continue
            for later in range(index + 1, len(summary.effects)):
                check = summary.effects[later]
                if check.kind == "vcheck" and not check.under_lock:
                    findings.append(
                        Finding(
                            rule_id="CC005",
                            severity=Severity.WARNING,
                            message=(
                                "%s is filled under lock %r but the "
                                "version check at line %d runs after "
                                "the lock is released — the check "
                                "validates a moment that already "
                                "ended"
                                % (
                                    effect.target,
                                    effect.under_lock,
                                    check.line,
                                )
                            ),
                            path=summary.info.module.path,
                            line=effect.line,
                            col=effect.col,
                            symbol=summary.info.qual,
                        )
                    )
                    break
        return findings

    # -- CC006 -------------------------------------------------------------------

    def _check_shard_sharing(
        self, summary: CacheFunctionSummary
    ) -> List[Finding]:
        findings: List[Finding] = []
        for name, line in summary.shared_shard_derived:
            findings.append(
                Finding(
                    rule_id="CC006",
                    severity=Severity.INFO,
                    message=(
                        "%r is derived from one shard's state but "
                        "shared across every shard's closure with no "
                        "shard-id key component — justify that the "
                        "value is shard-independent" % name
                    ),
                    path=summary.info.module.path,
                    line=line,
                    col=0,
                    symbol=summary.info.qual,
                )
            )
        return findings


# -- shared helpers ----------------------------------------------------------


def _cache_by_name(model: CacheModel, name: str):
    for cache in model.caches.values():
        if cache.name == name:
            return cache
    return None


def _push_invalidated_caches(model: CacheModel) -> Set[str]:
    """Cache names some *owner* (outside the class) invalidates.

    An owner that drops entries at its mutation sites (``clear()``
    from outside the class) — invalidation pushed at the writer rather
    than pulled from a key or a stamp.
    """
    out: Set[str] = set()
    for summary in model.summaries.values():
        for effect in summary.effects:
            if effect.kind != "invalidate":
                continue
            cache = _cache_by_name(model, effect.target)
            if cache is None:
                continue
            if summary.info.class_symbol != cache.class_symbol:
                out.add(cache.name)
    return out


def _covered_after(
    inlined: List[Effect],
    line: int,
    col: int,
    tokens: Set[str],
) -> bool:
    """Whether a bump/invalidation follows the mutation at (line, col).

    Works over the *inlined* view so a mutation performed inside a
    callee (``metadata.split_chunk``) is covered by the caller's bump
    after the call site.
    """
    site = _site_end(inlined, line, col)
    if site is None:
        return False
    for later in range(site, len(inlined)):
        effect = inlined[later]
        if effect.in_handler:
            continue
        if effect.kind == "invalidate":
            return True
        if effect.kind == "bump" and effect.detail in tokens:
            return True
    return False


def _bumped_before(
    inlined: List[Effect],
    line: int,
    col: int,
    tokens: Set[str],
) -> bool:
    """Whether a governing bump precedes the mutation at (line, col).

    A mutation with a bump *before* it is mis-ordered rather than
    uncovered; CC004 owns that case, so CC003-missing stands down.
    """
    for effect in inlined:
        if effect.line == line and effect.col == col:
            return False
        if (
            effect.kind == "bump"
            and not effect.in_handler
            and effect.detail in tokens
        ):
            return True
    return False


def _site_end(
    inlined: List[Effect], line: int, col: int
) -> Optional[int]:
    """Index just past the last inlined effect at a source position."""
    last: Optional[int] = None
    for index, effect in enumerate(inlined):
        if effect.line == line and effect.col == col:
            last = index
    if last is None:
        return None
    return last + 1


def _callers_cover(
    model: CacheModel,
    symbol: str,
    tokens: Set[str],
    cache: Dict[str, bool],
    seen: frozenset,
) -> bool:
    """Whether every caller bumps/invalidates after calling ``symbol``.

    The holder-obligation pattern: ``catalog.split_chunk`` mutates the
    chunk list and the cluster bumps right after the call.  Recursion
    covers wrappers; a function with no callers at the leaf leaves the
    mutation uncovered.
    """
    callers = [c for c in model.callers_of(symbol) if c not in seen]
    if not callers:
        return False
    for caller in callers:
        key = "%s->%s" % (caller, symbol)
        if key in cache:
            if not cache[key]:
                return False
            continue
        inlined = model.inlined_effects(caller)
        caller_summary = model.summaries[caller]
        covered_here = False
        for effect in caller_summary.effects:
            if effect.kind != "call":
                continue
            if symbol not in effect.detail.split(","):
                continue
            if _covered_after(inlined, effect.line, effect.col, tokens):
                covered_here = True
            else:
                covered_here = False
                break
        if not covered_here:
            covered_here = _callers_cover(
                model, caller, tokens, cache, seen | {caller}
            )
        cache[key] = covered_here
        if not covered_here:
            return False
    return True
