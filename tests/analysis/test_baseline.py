"""Baseline lifecycle: add, suppress, expire — and fingerprint shape."""

import ast

from repro.analysis.baseline import (
    PLACEHOLDER_JUSTIFICATION,
    Baseline,
    BaselineEntry,
)
from repro.analysis.checker import ModuleInfo, registered_checkers
from repro.analysis.findings import assign_ordinals

BAD = """\
def serve(lock):
    lock.acquire()
    do_work()
    lock.release()
"""

FIXED = """\
def serve(lock):
    lock.acquire()
    try:
        do_work()
    finally:
        lock.release()
"""


def _findings(source, path="src/repro/service/fixture.py"):
    module = ModuleInfo(
        path=path,
        package="repro.service.fixture",
        tree=ast.parse(source),
        source=source,
    )
    checker = registered_checkers()["lock-discipline"]()
    return assign_ordinals(checker.check(module))


def test_new_finding_without_baseline_entry():
    new, suppressed, stale = Baseline().split(_findings(BAD))
    assert [f.rule_id for f in new] == ["LD001"]
    assert suppressed == [] and stale == []


def test_add_then_suppress_round_trip(tmp_path):
    findings = _findings(BAD)
    path = tmp_path / "baseline.json"
    Baseline().updated(findings).save(path)

    loaded = Baseline.load(path)
    assert len(loaded) == 1
    entry = next(iter(loaded.entries.values()))
    assert entry.justification == PLACEHOLDER_JUSTIFICATION

    new, suppressed, stale = loaded.split(findings)
    assert new == [] and stale == []
    assert [f.rule_id for f in suppressed] == ["LD001"]


def test_fixed_code_expires_the_entry(tmp_path):
    path = tmp_path / "baseline.json"
    Baseline().updated(_findings(BAD)).save(path)

    new, suppressed, stale = Baseline.load(path).split(_findings(FIXED))
    assert new == [] and suppressed == []
    assert [e.rule for e in stale] == ["LD001"]


def test_rewrite_drops_stale_and_keeps_justifications(tmp_path):
    path = tmp_path / "baseline.json"
    findings = _findings(BAD)
    justified = Baseline(
        [
            BaselineEntry(
                fingerprint=f.fingerprint,
                rule=f.rule_id,
                path=f.path,
                symbol=f.symbol,
                justification="held across the handoff on purpose",
            )
            for f in findings
        ]
    )
    justified.save(path)

    # Same finding still present: rewrite preserves the justification.
    rewritten = Baseline.load(path).updated(findings)
    assert [e.justification for e in rewritten.entries.values()] == [
        "held across the handoff on purpose"
    ]

    # Finding gone: rewrite drops the entry.
    assert len(Baseline.load(path).updated(_findings(FIXED))) == 0


def test_fingerprint_is_line_independent():
    shifted = "\n\n\n" + BAD
    assert [f.fingerprint for f in _findings(BAD)] == [
        f.fingerprint for f in _findings(shifted)
    ]
    assert _findings(BAD)[0].line != _findings(shifted)[0].line


def test_missing_baseline_file_is_empty(tmp_path):
    loaded = Baseline.load(tmp_path / "nope.json")
    assert len(loaded) == 0


def _entry(fingerprint, justification):
    rule, path, symbol, _ordinal = fingerprint.split("::")
    return BaselineEntry(fingerprint, rule, path, symbol, justification)


def test_scoped_run_only_judges_its_own_rules_entries():
    # A CC-only run looked for no LD finding: the LD entry it did not
    # match is not stale, the CC entry it did not match is.
    baseline = Baseline(
        [
            _entry("LD001::a.py::serve::0", "handoff, released by b()"),
            _entry("CC006::a.py::find::0", "value is shard-independent"),
        ]
    )
    _new, _suppressed, stale = baseline.split([], select=["CC"])
    assert [e.rule for e in stale] == ["CC006"]
    _new, _suppressed, stale = baseline.split([])
    assert [e.rule for e in stale] == ["CC006", "LD001"]


def test_scoped_rewrite_leaves_other_families_untouched():
    findings = _findings(BAD)  # one LD001
    baseline = Baseline(
        [
            _entry("CC006::a.py::find::0", "value is shard-independent"),
            _entry("LD003::gone.py::old::0", "no longer matches"),
        ]
    )
    rewritten = baseline.updated(findings, select=["LD"])
    assert sorted(rewritten.entries) == [
        "CC006::a.py::find::0",
        findings[0].fingerprint,
    ]
    kept = rewritten.entries["CC006::a.py::find::0"]
    assert kept.justification == "value is shard-independent"
    # Unscoped, the same rewrite accepts exactly the findings.
    assert list(baseline.updated(findings).entries) == [
        findings[0].fingerprint
    ]
