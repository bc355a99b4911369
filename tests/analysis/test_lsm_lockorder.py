"""The LSM lock discipline, checked from both sides.

Satellite of the durable-write-path PR: the deliberate
flush-vs-compaction inversion in ``lsm_lockorder_reconstruction.py``
must be caught *statically* (LK001 on the fixture) and *at runtime*
(sanitized locks observing a sequential execution), the two verdicts
must cross-validate, and the shipped engine — instrumented the same
way — must come out clean against the real static graph.
"""

from pathlib import Path

import pytest

from repro.analysis.checker import run_analysis
from repro.analysis.lockgraph import build_lock_order_graph
from repro.docstore.lsm import DurabilityConfig, LSMEngine
from repro.docstore.lsm.wal import OP_DELETE
from repro.sanitizer import (
    LSM_INSTRUMENTED_KEYS,
    LockOrderSanitizer,
    SanitizedLock,
    cross_validate,
    instrument_lsm_engine,
)
from tests.analysis.lsm_lockorder_reconstruction import ShadowingCompactor

REPO_ROOT = Path(__file__).resolve().parents[2]
RECONSTRUCTION = Path(__file__).with_name("lsm_lockorder_reconstruction.py")

_PREFIX = "tests.analysis.lsm_lockorder_reconstruction.ShadowingCompactor."
WRITE_KEY = _PREFIX + "write_lock"
MANIFEST_KEY = _PREFIX + "manifest_lock"


def instrumented_compactor(sanitizer):
    """A ShadowingCompactor whose locks report to ``sanitizer``, keyed
    by the same registry symbols the static analysis derives."""
    core = ShadowingCompactor()
    core.write_lock = SanitizedLock(sanitizer, WRITE_KEY)
    core.manifest_lock = SanitizedLock(sanitizer, MANIFEST_KEY)
    return core


class TestReconstructionStatic:
    """The static half: LK001 sees what the LD rules cannot."""

    def test_intraprocedural_rules_are_blind_to_it(self):
        findings = run_analysis([str(RECONSTRUCTION)], root=REPO_ROOT)
        assert [
            f for f in findings if f.rule_id.startswith("LD")
        ] == []

    def test_lk001_flags_the_flush_vs_compaction_cycle(self):
        findings = run_analysis(
            [str(RECONSTRUCTION)], root=REPO_ROOT, select=["LK001"]
        )
        assert len(findings) == 1
        message = findings[0].message
        assert "write_lock" in message and "manifest_lock" in message
        assert "cycle" in message


class TestReconstructionRuntime:
    """The runtime half: the sanitizer reproduces the same cycle."""

    def test_sanitizer_detects_the_cycle_sequentially(self):
        # flush then compact, one thread — the cumulative acquisition
        # graph closes the cycle without any adversarial timing.
        san = LockOrderSanitizer()
        core = instrumented_compactor(san)
        core.put(b"k", b"v")
        core.flush()
        core.compact()
        kinds = [v.kind for v in san.violations()]
        assert "lock-order-cycle" in kinds
        (cycle,) = [
            v for v in san.violations() if v.kind == "lock-order-cycle"
        ]
        assert WRITE_KEY in cycle.detail and MANIFEST_KEY in cycle.detail
        with pytest.raises(AssertionError, match="lock-order-cycle"):
            san.assert_clean()

    def test_runtime_and_static_verdicts_cross_validate(self):
        # Both directions: every runtime edge has a static counterpart
        # AND the static cycle was reproduced by the run.
        san = LockOrderSanitizer()
        core = instrumented_compactor(san)
        core.put(b"k", b"v")
        core.flush()
        core.compact()
        graph = build_lock_order_graph([str(RECONSTRUCTION)], REPO_ROOT)
        report = cross_validate(graph, san, [WRITE_KEY, MANIFEST_KEY])
        assert report.ok
        assert "OK" in report.render()


class TestShippedEngine:
    """The shipped engine under the same instrumentation is clean."""

    def _drive(self, engine):
        for i in range(120):
            engine.put_one(b"key-%04d" % i, b"value-%04d" % i * 8)
        for i in range(0, 60, 3):
            engine.apply_batch([(OP_DELETE, b"key-%04d" % i, None)])
        engine.checkpoint()
        assert engine.get(b"key-0001") is not None
        assert engine.get(b"key-0000") is None
        list(engine.scan())

    def test_engine_lifecycle_is_clean_and_explained(self, tmp_path, shipped):
        san = LockOrderSanitizer()
        config = DurabilityConfig(
            directory=str(tmp_path),
            memtable_max_bytes=2_000,
            compaction_min_runs=2,
            compaction=False,
        )
        engine = instrument_lsm_engine(LSMEngine(config), san)
        engine.recover()
        self._drive(engine)
        engine.compact_now()
        engine.close()
        san.assert_clean()
        # Every observed edge must be one the analyzer derived from
        # the source: an unexplained edge is an analyzer blind spot.
        graph = shipped[1].locks.graph
        report = cross_validate(graph, san, LSM_INSTRUMENTED_KEYS)
        assert report.ok, report.render()

    def test_background_compactor_is_clean(self, tmp_path):
        san = LockOrderSanitizer()
        config = DurabilityConfig(
            directory=str(tmp_path),
            memtable_max_bytes=2_000,
            compaction_min_runs=2,
        )
        engine = instrument_lsm_engine(LSMEngine(config), san)
        engine.recover()
        self._drive(engine)
        engine.close()
        san.assert_clean()
