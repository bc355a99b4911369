"""The three PR-6 crash-consistency bugs, checked from both sides.

Tentpole of the FS-analysis PR: each reconstructed bug class must be
caught *statically* (an FS finding on the fixture) and *at runtime*
(the trace oracle observing or crash-replaying the same module), the
two verdicts must cross-validate, and the shipped engine — traced the
same way — must come out clean against the real static model.
"""

from pathlib import Path

import pytest

from repro.analysis.checker import run_analysis
from repro.docstore.lsm import DurabilityConfig, LSMEngine
from repro.sanitizer import (
    LSM_FS_PATHS,
    FsTracer,
    InjectedCrash,
    cross_validate_fs,
    sweep_crash_boundaries,
)
from tests.analysis.fs_reconstruction import (
    close_before_unlink,
    missing_dirfsync,
    swap_before_commit,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).with_name("fs_reconstruction")


def analyze(name):
    """Static FS findings for one reconstruction fixture."""
    return run_analysis(
        [str(FIXTURES / name)], root=REPO_ROOT, select=["FS"]
    )


def rel(name):
    """The fixture's repo-relative path (cross-validation scope)."""
    return "tests/analysis/fs_reconstruction/" + name


class TestMissingDirfsync:
    """Bug class 1: WAL deleted before the manifest rename is durable."""

    def test_static_checker_flags_exactly_fs002(self):
        findings = analyze("missing_dirfsync.py")
        assert {f.rule_id for f in findings} == {"FS002"}
        (finding,) = findings
        assert finding.symbol.endswith("publish_manifest")
        assert "directory fsync" in finding.message

    def _drive(self, tmp_path):
        wal = tmp_path / "wal-0000.log"
        wal.write_text("put k v\n")
        tracer = FsTracer()
        tracer.install([missing_dirfsync])
        try:
            missing_dirfsync.publish_manifest(
                str(tmp_path), "{}", str(wal)
            )
        finally:
            tracer.uninstall()
        return tracer

    def test_trace_oracle_observes_the_ordering(self, tmp_path):
        tracer = self._drive(tmp_path)
        families = {v.family for v in tracer.violations()}
        assert families == {"FS002"}
        with pytest.raises(AssertionError, match="unlink-before-dirfsync"):
            tracer.assert_clean()

    def test_both_verdicts_cross_validate(self, tmp_path):
        tracer = self._drive(tmp_path)
        report = cross_validate_fs(
            analyze("missing_dirfsync.py"),
            tracer.violations(),
            [rel("missing_dirfsync.py")],
        )
        assert report.ok, report.render()
        assert "OK" in report.render()

    def test_runtime_without_static_is_a_blind_spot(self, tmp_path):
        tracer = self._drive(tmp_path)
        report = cross_validate_fs(
            [], tracer.violations(), [rel("missing_dirfsync.py")]
        )
        assert not report.ok
        assert report.unexplained_runtime_violations
        assert "blind spot" in report.render()

    def test_static_without_runtime_needs_justification(self):
        findings = analyze("missing_dirfsync.py")
        report = cross_validate_fs(
            findings, [], [rel("missing_dirfsync.py")]
        )
        assert not report.ok
        assert report.unmanifested_static_findings
        justified = cross_validate_fs(
            findings,
            [],
            [rel("missing_dirfsync.py")],
            justified=[f.fingerprint for f in findings],
        )
        assert justified.ok


class TestCloseBeforeUnlink:
    """Bug class 2: runs retired by closing the fd readers still hold."""

    def test_static_checker_flags_exactly_fs003(self):
        findings = analyze("close_before_unlink.py")
        assert {f.rule_id for f in findings} == {"FS003"}
        (finding,) = findings
        assert finding.symbol.endswith("retire_all")

    def _drive(self, tmp_path):
        path = tmp_path / "run-0000.run"
        path.write_bytes(b"payload bytes")
        tracer = FsTracer()
        tracer.install([close_before_unlink])
        try:
            runs = close_before_unlink.RunSet()
            runs.add(close_before_unlink.Run(str(path)))
            snapshot = runs.snapshot()
            assert runs.read_all(7) == [b"payload"]
            runs.retire_all()
            # The snapshot holder races on: its descriptor is dead (or,
            # worse, recycled).  The oracle flags the pread either way.
            try:
                snapshot[0].read_at(7, 0)
            except OSError:
                pass
        finally:
            tracer.uninstall()
        return tracer

    def test_trace_oracle_observes_the_dead_fd(self, tmp_path):
        tracer = self._drive(tmp_path)
        families = {v.family for v in tracer.violations()}
        assert families == {"FS003"}
        with pytest.raises(AssertionError, match="pread-after-close"):
            tracer.assert_clean()

    def test_both_verdicts_cross_validate(self, tmp_path):
        tracer = self._drive(tmp_path)
        report = cross_validate_fs(
            analyze("close_before_unlink.py"),
            tracer.violations(),
            [rel("close_before_unlink.py")],
        )
        assert report.ok, report.render()


class TestSwapBeforeCommit:
    """Bug class 3: flush swaps engine state before the commit point."""

    def test_static_checker_flags_exactly_fs004(self):
        findings = analyze("swap_before_commit.py")
        assert {f.rule_id for f in findings} == {"FS004"}
        assert {f.symbol.split(".")[-1] for f in findings} == {"flush"}
        # Both premature swaps — the entry map and the memtable — are
        # individually pinned to their lines.
        assert len(findings) == 2

    @staticmethod
    def _workload(directory, tracer):
        acked = []
        engine = swap_before_commit.MiniEngine(directory)
        try:
            engine.recover()
            for i in range(4):
                engine.put("k%d" % i, "v%d" % i)
                if tracer.crash_triggered:
                    return acked
                acked.append("k%d" % i)
            engine.flush()
            engine.close()
        except InjectedCrash:
            pass
        return acked

    @staticmethod
    def _recover(snapshot_dir):
        engine = swap_before_commit.MiniEngine(snapshot_dir)
        engine.recover()
        keys = engine.keys()
        engine.close()
        return keys

    def _sweep(self, tmp_path):
        def make_dirs(boundary):
            work = tmp_path / ("work-%03d" % boundary)
            snap = tmp_path / ("snap-%03d" % boundary)
            work.mkdir()
            snap.mkdir()
            return str(work), str(snap)

        return sweep_crash_boundaries(
            self._workload,
            self._recover,
            make_dirs,
            modules=[swap_before_commit],
        )

    def test_crash_replay_loses_acknowledged_writes(self, tmp_path):
        results = self._sweep(tmp_path)
        assert results, "no crash boundary ever triggered"
        losses = [r for r in results if r.lost]
        assert losses, "no boundary lost an acknowledged write"
        # The lethal window: run durable, WAL gone, manifest not yet
        # committed — recovery sweeps the run as an orphan.
        assert any(set(r.lost) == set(r.acked) for r in losses)

    def test_replay_evidence_cross_validates_with_fs004(self, tmp_path):
        results = self._sweep(tmp_path)
        report = cross_validate_fs(
            analyze("swap_before_commit.py"),
            [],
            [rel("swap_before_commit.py")],
            replay_results=results,
        )
        assert report.ok, report.render()


class TestShippedEngine:
    """The shipped engine under the same oracle is clean, both ways."""

    def _drive(self, directory):
        config = DurabilityConfig(
            directory=directory,
            sync="always",
            memtable_max_bytes=1_000,
            compaction_min_runs=2,
            compaction=False,
        )
        engine = LSMEngine(config)
        engine.recover()
        for i in range(60):
            engine.put_one(b"key-%04d" % i, b"value-%04d" % i * 4)
        for i in range(0, 30, 3):
            engine.delete_one(b"key-%04d" % i)
        engine.checkpoint()
        while engine.compact_now():
            pass
        assert engine.get(b"key-0001") is not None
        assert engine.get(b"key-0000") is None
        list(engine.scan())
        engine.close()
        # Recovery under the shim too: the sweep path unlinks temp and
        # orphan files and must also explain its orderings.
        reopened = LSMEngine(config)
        reopened.recover()
        assert reopened.get(b"key-0001") is not None
        reopened.close()

    def test_full_lifecycle_is_clean_and_explained(
        self, tmp_path, shipped_findings
    ):
        tracer = FsTracer()
        with tracer:
            self._drive(str(tmp_path))
        tracer.assert_clean()
        assert tracer.events, "the shim recorded nothing"
        observed = {event.op for event in tracer.events}
        # The oracle saw the whole effect vocabulary of the write path.
        assert {
            "open",
            "write",
            "flush",
            "fsync",
            "dirfsync",
            "replace",
            "unlink",
            "close",
            "pread",
        } <= observed
        static = shipped_findings("FS")
        report = cross_validate_fs(
            static, tracer.violations(), LSM_FS_PATHS
        )
        assert report.ok, report.render()

    @staticmethod
    def _engine_workload(directory, tracer):
        acked = []
        config = DurabilityConfig(
            directory=directory,
            sync="always",
            memtable_max_bytes=256,
            compaction=False,
        )
        engine = LSMEngine(config)
        try:
            engine.recover()
            for i in range(8):
                engine.put_one(b"k%02d" % i, b"v" * 32)
                if tracer.crash_triggered:
                    return acked
                acked.append(b"k%02d" % i)
            engine.checkpoint()
        except InjectedCrash:
            pass
        return acked

    @staticmethod
    def _engine_recover(snapshot_dir):
        config = DurabilityConfig(
            directory=snapshot_dir, sync="off", compaction=False
        )
        engine = LSMEngine(config)
        engine.recover()
        keys = {key for key, _ in engine.scan()}
        engine.close()
        return keys

    def test_no_crash_boundary_loses_acknowledged_writes(self, tmp_path):
        def make_dirs(boundary):
            work = tmp_path / ("work-%03d" % boundary)
            snap = tmp_path / ("snap-%03d" % boundary)
            work.mkdir()
            snap.mkdir()
            return str(work), str(snap)

        results = sweep_crash_boundaries(
            self._engine_workload, self._engine_recover, make_dirs
        )
        assert results, "no crash boundary ever triggered"
        losses = [r for r in results if r.lost]
        assert losses == [], "lost acked writes at boundaries %s" % [
            (r.boundary, r.lost) for r in losses
        ]
