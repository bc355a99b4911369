"""Mechanics of the cache epoch tracer.

The reconstruction suite (``tests/analysis/test_cache_reconstruction``)
proves the tracer catches the five CC bug classes end to end; this
module pins the primitives those tests lean on — the generation
vector, fill stamps, derivation-time snapshots, hit rechecks.  The
shipped tree holds no cache, so there is no shipped hook to smoke-test;
``trace_cache`` is exercised through the stamped primitive in the
reconstruction suite.
"""

from __future__ import annotations

import pytest

from repro.sanitizer import CacheTracer


class TestGenerationVector:
    def test_advance_is_per_domain_and_monotonic(self):
        tracer = CacheTracer()
        assert tracer.generation("metadata") == 0
        assert tracer.advance("metadata") == 1
        assert tracer.advance("metadata") == 2
        assert tracer.generation("metadata") == 2
        assert tracer.generation("ddl:t") == 0

    def test_snapshot_is_a_frozen_copy(self):
        tracer = CacheTracer()
        tracer.advance("metadata")
        snap = tracer.snapshot()
        tracer.advance("metadata")
        assert snap == {"metadata": 1}
        assert tracer.generation("metadata") == 2


class TestFillsAndHits:
    def test_fresh_hit_is_clean(self):
        tracer = CacheTracer()
        tracer.advance("metadata")
        tracer.record_fill("c", "k", ("metadata",))
        assert not tracer.check_hit("c", "k", ("metadata",))
        tracer.assert_clean()

    def test_hit_after_advance_is_stale(self):
        tracer = CacheTracer()
        tracer.record_fill("c", "k", ("metadata",))
        tracer.advance("metadata")
        assert tracer.check_hit("c", "k", ("metadata",))
        (violation,) = tracer.violations()
        assert violation.kind == "stale-hit"
        assert violation.family == "CC003"
        assert "filled@0 current@1" in violation.detail

    def test_family_is_caller_supplied(self):
        tracer = CacheTracer()
        tracer.record_fill("c", "k", ("metadata",))
        tracer.advance("metadata")
        tracer.check_hit("c", "k", ("metadata",), family="CC002")
        (violation,) = tracer.violations()
        assert violation.family == "CC002"

    def test_only_declared_domains_are_checked(self):
        tracer = CacheTracer()
        tracer.record_fill("c", "k", ("ddl:t",))
        tracer.advance("metadata")
        assert not tracer.check_hit("c", "k", ("ddl:t",))

    def test_derivation_snapshot_backdates_the_stamp(self):
        tracer = CacheTracer()
        tracer.advance("metadata")
        snap = tracer.snapshot()
        # The mutation lands between derivation and fill; a fill-time
        # stamp would hide it, the snapshot stamp exposes it.
        tracer.advance("metadata")
        tracer.record_fill("c", "k", ("metadata",), at=snap)
        assert tracer.check_hit("c", "k", ("metadata",), family="CC002")

    def test_unknown_entries_are_skipped(self):
        tracer = CacheTracer()
        tracer.advance("metadata")
        assert not tracer.check_hit("c", "never-filled", ("metadata",))
        tracer.assert_clean()

    def test_forget_drops_the_stamp(self):
        tracer = CacheTracer()
        tracer.record_fill("c", "k", ("metadata",))
        tracer.forget("c", "k")
        tracer.advance("metadata")
        assert not tracer.check_hit("c", "k", ("metadata",))

    def test_assert_clean_raises_with_every_violation(self):
        tracer = CacheTracer()
        tracer.record_fill("c", "k1", ("metadata",))
        tracer.record_fill("c", "k2", ("metadata",))
        tracer.advance("metadata")
        tracer.check_hit("c", "k1", ("metadata",))
        tracer.check_hit("c", "k2", ("metadata",))
        with pytest.raises(AssertionError, match="2 stale hit"):
            tracer.assert_clean()
