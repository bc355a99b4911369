"""The analyzer against its own repository: the CI gate, as a test.

``python -m repro.analysis src --baseline analysis-baseline.json``
must exit 0 on the shipped tree, every baseline entry must still
match a finding and carry a real justification, and the registry must
hold exactly the shipped rule families.
"""

import io
import json
from pathlib import Path

import pytest

from repro.analysis.baseline import PLACEHOLDER_JUSTIFICATION, Baseline
from repro.analysis.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "analysis-baseline.json"

#: Every rule the registry ships; a checker that drops out of
#: registration fails the two tests that compare against this.
ALL_RULES = {
    *("LD%03d" % n for n in range(1, 4)),
    *("LK%03d" % n for n in range(1, 4)),
    *("FS%03d" % n for n in range(1, 7)),
    *("CC%03d" % n for n in range(1, 7)),
}


@pytest.fixture
def findings(shipped_findings):
    return shipped_findings()


def test_shipped_tree_passes_with_committed_baseline(shipped_main):
    out = io.StringIO()
    code = shipped_main(
        ["src", "--root", str(REPO_ROOT), "--baseline", str(BASELINE)],
        out=out,
    )
    assert code == 0, out.getvalue()
    assert "0 new finding(s)" in out.getvalue()


def test_no_stale_baseline_entries(findings):
    _new, _suppressed, stale = Baseline.load(BASELINE).split(findings)
    assert stale == [], "baseline entries no longer match: %s" % [
        e.fingerprint for e in stale
    ]


def test_every_baseline_entry_is_justified():
    baseline = Baseline.load(BASELINE)
    assert len(baseline) > 0
    for entry in baseline.entries.values():
        assert entry.justification.strip(), (
            "%s has no justification" % entry.fingerprint
        )
        assert entry.justification != PLACEHOLDER_JUSTIFICATION, (
            "%s still has the placeholder justification" % entry.fingerprint
        )


def test_json_format_reports_suppressed(tmp_path):
    out = io.StringIO()
    code = main(
        [
            "src/repro/service",
            "--root",
            str(REPO_ROOT),
            "--baseline",
            str(BASELINE),
            "--format",
            "json",
        ],
        out=out,
    )
    assert code == 0
    payload = json.loads(out.getvalue())
    assert payload["summary"]["new"] == 0
    assert payload["summary"]["suppressed"] > 0


def test_unbaselined_finding_fails_the_gate(tmp_path):
    bad = tmp_path / "leaky.py"
    bad.write_text(
        "def serve(lock):\n"
        "    lock.acquire()\n"
        "    work()\n"
        "    lock.release()\n",
        encoding="utf-8",
    )
    out = io.StringIO()
    code = main(
        [str(bad), "--root", str(tmp_path), "--baseline", str(BASELINE)],
        out=out,
    )
    assert code == 1
    assert "LD001" in out.getvalue()


def test_list_rules_names_every_rule():
    out = io.StringIO()
    assert main(["--list-rules"], out=out) == 0
    listed = {
        line.split()[0]
        for line in out.getvalue().splitlines()
        if line.startswith("  ")
    }
    assert listed == ALL_RULES


class TestSarifFormat:
    def test_sarif_log_shape(self):
        out = io.StringIO()
        code = main(
            [
                "src/repro/service",
                "--root",
                str(REPO_ROOT),
                "--baseline",
                str(BASELINE),
                "--format",
                "sarif",
            ],
            out=out,
        )
        assert code == 0
        log = json.loads(out.getvalue())
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rule_ids == ALL_RULES

    def test_every_rule_carries_full_metadata(self):
        # Code-scanning rule pages are only self-explanatory when every
        # rule ships a fullDescription, a default level, and a help link.
        out = io.StringIO()
        code = main(
            [
                "src/repro/service",
                "--root",
                str(REPO_ROOT),
                "--baseline",
                str(BASELINE),
                "--format",
                "sarif",
            ],
            out=out,
        )
        assert code == 0
        (run,) = json.loads(out.getvalue())["runs"]
        rules = run["tool"]["driver"]["rules"]
        assert {r["id"] for r in rules} >= {"FS001", "FS006"}
        for rule in rules:
            assert rule["fullDescription"]["text"].strip(), rule["id"]
            assert rule["defaultConfiguration"]["level"] in (
                "error",
                "warning",
                "note",
            ), rule["id"]
            assert rule["helpUri"].startswith("DESIGN.md#"), rule["id"]

    def test_baselined_findings_are_suppressed_results(self, shipped_main):
        out = io.StringIO()
        shipped_main(
            [
                "src",
                "--root",
                str(REPO_ROOT),
                "--baseline",
                str(BASELINE),
                "--format",
                "sarif",
            ],
            out=out,
        )
        (run,) = json.loads(out.getvalue())["runs"]
        suppressed = [
            r for r in run["results"] if r.get("suppressions")
        ]
        assert len(suppressed) == len(run["results"]) > 0
        for result in suppressed:
            (suppression,) = result["suppressions"]
            assert suppression["kind"] == "external"
            assert suppression["justification"].strip()

    def test_new_findings_carry_no_suppression(self, tmp_path):
        bad = tmp_path / "leaky.py"
        bad.write_text(
            "def serve(lock):\n"
            "    lock.acquire()\n"
            "    work()\n"
            "    lock.release()\n",
            encoding="utf-8",
        )
        out = io.StringIO()
        code = main(
            [str(bad), "--root", str(tmp_path), "--format", "sarif"],
            out=out,
        )
        assert code == 1
        (run,) = json.loads(out.getvalue())["runs"]
        (result,) = run["results"]
        assert result["ruleId"] == "LD001"
        assert "suppressions" not in result
        assert result["locations"][0]["physicalLocation"]["region"][
            "startLine"
        ] == 2


class TestBaselineHygiene:
    def _baseline_file(self, tmp_path, justification):
        target = tmp_path / "leaky.py"
        target.write_text(
            "def serve(lock):\n"
            "    lock.acquire()\n"
            "    work()\n"
            "    lock.release()\n",
            encoding="utf-8",
        )
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "fingerprint": (
                                "LD001::leaky.py::serve::0"
                            ),
                            "rule": "LD001",
                            "path": "leaky.py",
                            "symbol": "serve",
                            "justification": justification,
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        return target, baseline

    def test_require_justification_fails_on_empty(self, tmp_path):
        target, baseline = self._baseline_file(tmp_path, "")
        out = io.StringIO()
        code = main(
            [
                str(target),
                "--root",
                str(tmp_path),
                "--baseline",
                str(baseline),
                "--require-justification",
            ],
            out=out,
        )
        assert code == 1
        assert "lacks a justification" in out.getvalue()

    def test_require_justification_fails_on_placeholder(self, tmp_path):
        target, baseline = self._baseline_file(
            tmp_path, PLACEHOLDER_JUSTIFICATION
        )
        code = main(
            [
                str(target),
                "--root",
                str(tmp_path),
                "--baseline",
                str(baseline),
                "--require-justification",
            ],
            out=io.StringIO(),
        )
        assert code == 1

    def test_require_justification_passes_when_justified(self, tmp_path):
        target, baseline = self._baseline_file(
            tmp_path, "held across the handoff on purpose"
        )
        code = main(
            [
                str(target),
                "--root",
                str(tmp_path),
                "--baseline",
                str(baseline),
                "--require-justification",
            ],
            out=io.StringIO(),
        )
        assert code == 0

    def test_missing_file_entry_warns(self, tmp_path):
        target, baseline = self._baseline_file(tmp_path, "fine")
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        payload["entries"].append(
            {
                "fingerprint": "LD001::gone.py::serve::0",
                "rule": "LD001",
                "path": "gone.py",
                "symbol": "serve",
                "justification": "file was deleted since",
            }
        )
        baseline.write_text(json.dumps(payload), encoding="utf-8")
        out = io.StringIO()
        code = main(
            [
                str(target),
                "--root",
                str(tmp_path),
                "--baseline",
                str(baseline),
            ],
            out=out,
        )
        assert code == 0  # stale alone does not gate without the flag
        assert "missing file gone.py" in out.getvalue()

    def test_write_baseline_drops_missing_file_entries(self, tmp_path):
        target, baseline = self._baseline_file(tmp_path, "fine")
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        payload["entries"].append(
            {
                "fingerprint": "LD001::gone.py::serve::0",
                "rule": "LD001",
                "path": "gone.py",
                "symbol": "serve",
                "justification": "file was deleted since",
            }
        )
        baseline.write_text(json.dumps(payload), encoding="utf-8")
        out = io.StringIO()
        code = main(
            [
                str(target),
                "--root",
                str(tmp_path),
                "--baseline",
                str(baseline),
                "--write-baseline",
            ],
            out=out,
        )
        assert code == 0
        assert "1 for missing files" in out.getvalue()
        rewritten = Baseline.load(baseline)
        assert list(rewritten.entries) == ["LD001::leaky.py::serve::0"]
        # The surviving entry keeps its human-written justification.
        assert [
            e.justification for e in rewritten.entries.values()
        ] == ["fine"]

    def test_self_baseline_is_hygienic(self, shipped_main):
        # The committed baseline must survive its own strictest flags.
        out = io.StringIO()
        code = shipped_main(
            [
                "src",
                "--root",
                str(REPO_ROOT),
                "--baseline",
                str(BASELINE),
                "--require-justification",
                "--fail-on-stale",
            ],
            out=out,
        )
        assert code == 0, out.getvalue()

    def test_scoped_gate_passes_on_the_shipped_tree(self, shipped_main):
        # A CC-only run must not call the other families' 12 entries
        # stale: CI can gate a single family with the strictest flags.
        out = io.StringIO()
        code = shipped_main(
            [
                "src",
                "--root",
                str(REPO_ROOT),
                "--baseline",
                str(BASELINE),
                "--select",
                "CC",
                "--fail-on-stale",
                "--require-justification",
            ],
            out=out,
        )
        assert code == 0, out.getvalue()
        assert "1 baselined, 0 stale" in out.getvalue()

    def test_scoped_rewrite_keeps_the_other_families(
        self, tmp_path, shipped_main
    ):
        copy = tmp_path / "baseline.json"
        copy.write_text(BASELINE.read_text(encoding="utf-8"))
        out = io.StringIO()
        code = shipped_main(
            [
                "src",
                "--root",
                str(REPO_ROOT),
                "--baseline",
                str(copy),
                "--select",
                "CC",
                "--write-baseline",
            ],
            out=out,
        )
        assert code == 0, out.getvalue()
        assert "baseline rewritten: 9 entries" in out.getvalue()
        assert Baseline.load(copy).entries == Baseline.load(BASELINE).entries
