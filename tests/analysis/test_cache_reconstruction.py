"""The stale-cache bug classes, checked from both sides.

Tentpole of the cache-coherence PR: each reconstructed invalidation
bug must be caught *statically* (a CC finding on the fixture) and *at
runtime* (the epoch tracer observing a stale hit of the same family),
the two verdicts must cross-validate, and the shipped tree — which
holds no cache — must carry no cache-coherence finding the trace
would have to explain.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.checker import run_analysis
from repro.sanitizer import CacheTracer, cross_validate_cache, trace_cache
from tests.analysis.cache_reconstruction import (
    plan_cache_ddl,
    stamp_after_read,
    stats_catalog_split,
    storage_epoch_swap,
    targeting_version,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).with_name("cache_reconstruction")
#: The stamped cache primitive, analyzed beside the fixture that uses it.
PRIMITIVE = "tests/analysis/cache_reconstruction/stamped.py"


def analyze(name, *extra):
    """Static CC findings for one reconstruction fixture."""
    return run_analysis(
        [str(FIXTURES / name), *extra], root=REPO_ROOT, select=["CC"]
    )


def rel(name):
    """The fixture's repo-relative path (cross-validation scope)."""
    return "tests/analysis/cache_reconstruction/" + name


class TestPlanCacheDdl:
    """Bug class 1: catalog DDL leaves the plan generation unmoved."""

    def test_static_checker_flags_exactly_cc003(self):
        findings = analyze("plan_cache_ddl.py")
        assert {f.rule_id for f in findings} == {"CC003"}
        (finding,) = findings
        assert finding.symbol.endswith("drop_index")
        assert "no version bump" in finding.message

    def _drive(self):
        tracer = CacheTracer()
        svc = plan_cache_ddl.CatalogService()
        orig_get, orig_put = svc.cache.get, svc.cache.put

        def get(key):
            found = orig_get(key)
            if found is not None:
                tracer.check_hit(
                    "ddl-plan", key, ("ddl",), family="CC003"
                )
            return found

        def put(key, value):
            tracer.record_fill("ddl-plan", key, ("ddl",))
            orig_put(key, value)

        svc.cache.get, svc.cache.put = get, put
        orig_create, orig_drop = svc.create_index, svc.drop_index

        def create_index(name, spec):
            tracer.advance("ddl")
            return orig_create(name, spec)

        def drop_index(name):
            # Ground truth: the catalog mutates here whether or not
            # the fixture remembers to bump its generation.
            tracer.advance("ddl")
            return orig_drop(name)

        svc.create_index, svc.drop_index = create_index, drop_index

        svc.create_index("k_idx", ("k",))
        plan = svc.cached_plan(("k",), svc.plan_generation)
        assert plan == ["k_idx"]
        svc.drop_index("k_idx")
        # The generation never moved, so the same key HITS the entry
        # that still hints the dropped index — the wrong answer the
        # tracer pins as a stale hit.
        stale = svc.cached_plan(("k",), svc.plan_generation)
        assert stale == ["k_idx"]
        return tracer

    def test_trace_oracle_observes_the_stale_hit(self):
        tracer = self._drive()
        families = {v.family for v in tracer.violations()}
        assert families == {"CC003"}
        with pytest.raises(AssertionError, match="stale hit"):
            tracer.assert_clean()

    def test_both_verdicts_cross_validate(self):
        tracer = self._drive()
        report = cross_validate_cache(
            analyze("plan_cache_ddl.py"),
            tracer.violations(),
            [rel("plan_cache_ddl.py")],
        )
        assert report.ok, report.render()
        assert "OK" in report.render()

    def test_runtime_without_static_is_a_blind_spot(self):
        tracer = self._drive()
        report = cross_validate_cache(
            [], tracer.violations(), [rel("plan_cache_ddl.py")]
        )
        assert not report.ok
        assert report.unexplained_runtime_violations
        assert "blind spot" in report.render()

    def test_static_without_runtime_needs_justification(self):
        findings = analyze("plan_cache_ddl.py")
        report = cross_validate_cache(
            findings, [], [rel("plan_cache_ddl.py")]
        )
        assert not report.ok
        assert report.unmanifested_static_findings
        justified = cross_validate_cache(
            findings,
            [],
            [rel("plan_cache_ddl.py")],
            justified=[f.fingerprint for f in findings],
        )
        assert justified.ok


class _RacyVersion:
    """Mixin: a fixture topology whose version read can fire a race.

    ``metadata_version`` becomes a property so the test can inject a
    concurrent ``move_chunk`` exactly between the fixture's governed
    data read and its version capture — the CC002 window — while the
    fixture's own ``route`` body runs unmodified.  The race fires on
    the read after ``reads_before_race`` others.
    """

    race = None
    reads_before_race = 0

    @property
    def metadata_version(self):
        if self.race is not None:
            if self.reads_before_race:
                self.reads_before_race -= 1
            else:
                race, self.race = self.race, None
                race()
        return self._mv

    @metadata_version.setter
    def metadata_version(self, value):
        self._mv = value


class _RacyTopology(_RacyVersion, targeting_version.Topology):
    """The version-in-key fixture with a racing version read."""


class TestTargetingVersionSkew:
    """Bug class 2: routing key built from a fresher version than its data."""

    def test_static_checker_flags_exactly_cc002(self):
        findings = analyze("targeting_version.py")
        assert {f.rule_id for f in findings} == {"CC002"}
        (finding,) = findings
        assert finding.symbol.endswith("route")
        assert "captured" in finding.message

    def _drive(self):
        tracer = CacheTracer()
        topo = _RacyTopology()
        orig_bump = topo._bump_metadata_version

        def bump():
            tracer.advance("metadata")
            return orig_bump()

        topo._bump_metadata_version = bump
        topo.move_chunk("c0", "s0")

        # Derivation-time snapshot: route() starts deriving now.
        snapshot = tracer.snapshot()
        orig_get, orig_put = topo.routes.get, topo.routes.put

        def get(key):
            value = orig_get(key)
            if value is not None:
                tracer.check_hit(
                    "routes", key, ("metadata",), family="CC002"
                )
            return value

        def put(key, value):
            tracer.record_fill(
                "routes", key, ("metadata",), at=snapshot
            )
            orig_put(key, value)

        topo.routes.get, topo.routes.put = get, put

        # The racing split lands between route()'s chunk-map read and
        # its version capture — the exact window the fixture leaves
        # open.
        topo.race = lambda: topo.move_chunk("c1", "s1")
        stale = topo.route((0, 10))
        assert "c1" not in stale  # derived before the split
        # Same interval, now-current version: the fresh key HITS the
        # stale derivation stored under it, permanently.
        served = topo.route((0, 10))
        assert served == stale
        return tracer

    def test_trace_oracle_observes_the_stale_hit(self):
        tracer = self._drive()
        families = {v.family for v in tracer.violations()}
        assert families == {"CC002"}

    def test_both_verdicts_cross_validate(self):
        tracer = self._drive()
        report = cross_validate_cache(
            analyze("targeting_version.py"),
            tracer.violations(),
            [rel("targeting_version.py")],
        )
        assert report.ok, report.render()

    def test_runtime_without_static_is_a_blind_spot(self):
        tracer = self._drive()
        report = cross_validate_cache(
            [], tracer.violations(), [rel("targeting_version.py")]
        )
        assert not report.ok
        assert "blind spot" in report.render()


class TestStorageEpochSwap:
    """Bug class 3: epoch bumped before the segment swap is visible."""

    def test_static_checker_flags_exactly_cc004(self):
        findings = analyze("storage_epoch_swap.py")
        assert {f.rule_id for f in findings} == {"CC004"}
        (finding,) = findings
        assert finding.symbol.endswith("swap_segment")
        assert "bumped" in finding.message

    def _drive(self):
        tracer = CacheTracer()
        eng = storage_epoch_swap.StorageEngine()

        class TrackedSegments(dict):
            """Advance the storage domain when a swap becomes visible."""

            def __setitem__(self, key, value):
                tracer.advance("storage")
                super().__setitem__(key, value)

        eng.segments = TrackedSegments()
        orig_get, orig_put = eng.cache.get, eng.cache.put

        def get(key):
            value = orig_get(key)
            if value is not None:
                tracer.check_hit(
                    "segments", key, ("storage",), family="CC004"
                )
            return value

        def put(key, value):
            tracer.record_fill("segments", key, ("storage",))
            orig_put(key, value)

        eng.cache.get, eng.cache.put = get, put

        eng.add_segment("s0", {"a": "1"})
        assert eng.lookup("a", eng.storage_epoch) == ["s0"]

        # A reader misses on the NEW epoch between the premature bump
        # and the swap, caching the old contents under the new key.
        race = {"fired": False}
        orig_bump = eng._bump_storage_epoch

        def racing_bump():
            orig_bump()
            if not race["fired"]:
                race["fired"] = True
                assert eng.lookup("b", eng.storage_epoch) == []

        eng._bump_storage_epoch = racing_bump
        eng.swap_segment("s0", {"b": "2"})
        # Post-swap lookup on the current epoch HITS the pre-swap
        # entry: "b" exists now, the cache says it does not.
        assert eng.lookup("b", eng.storage_epoch) == []
        return tracer

    def test_trace_oracle_observes_the_stale_hit(self):
        tracer = self._drive()
        families = {v.family for v in tracer.violations()}
        assert families == {"CC004"}

    def test_both_verdicts_cross_validate(self):
        tracer = self._drive()
        report = cross_validate_cache(
            analyze("storage_epoch_swap.py"),
            tracer.violations(),
            [rel("storage_epoch_swap.py")],
        )
        assert report.ok, report.render()

    def test_runtime_without_static_is_a_blind_spot(self):
        tracer = self._drive()
        report = cross_validate_cache(
            [], tracer.violations(), [rel("storage_epoch_swap.py")]
        )
        assert not report.ok
        assert "blind spot" in report.render()


class TestStatsCatalogSplit:
    """Bug class 4: ANALYZE output outlives the chunk map it measured."""

    def test_static_checker_flags_exactly_cc001(self):
        findings = analyze("stats_catalog_split.py")
        assert {f.rule_id for f in findings} == {"CC001"}
        (finding,) = findings
        assert finding.symbol.endswith("stats_for")
        assert "no version token" in finding.message

    def _drive(self):
        tracer = CacheTracer()
        cluster = stats_catalog_split.StatsCluster()
        orig_bump = cluster._bump_metadata_version

        def bump():
            # Ground truth: the chunk map mutates here whether or not
            # the fixture's catalog ever hears about it.
            tracer.advance("metadata")
            return orig_bump()

        cluster._bump_metadata_version = bump
        orig_get, orig_put = (
            cluster.catalog.get,
            cluster.catalog.put,
        )

        def get(key):
            value = orig_get(key)
            if value is not None:
                tracer.check_hit(
                    "catalog", key, ("metadata",), family="CC001"
                )
            return value

        def put(key, value):
            tracer.record_fill("catalog", key, ("metadata",))
            orig_put(key, value)

        cluster.catalog.get, cluster.catalog.put = get, put

        assert cluster.analyze("traces") == {"chunks": 1}
        assert cluster.stats_for("traces") == {"chunks": 1}  # fresh
        cluster.split_chunk("c0", 50)
        # The catalog still answers with the pre-split chunk count —
        # the cost model plans against 1 chunk where the cluster now
        # has 2, the wrong answer the tracer pins as a stale hit.
        stale = cluster.stats_for("traces")
        assert stale == {"chunks": 1}
        assert len(cluster.chunks) == 2
        return tracer

    def test_trace_oracle_observes_the_stale_hit(self):
        tracer = self._drive()
        families = {v.family for v in tracer.violations()}
        assert families == {"CC001"}
        with pytest.raises(AssertionError, match="stale hit"):
            tracer.assert_clean()

    def test_both_verdicts_cross_validate(self):
        tracer = self._drive()
        report = cross_validate_cache(
            analyze("stats_catalog_split.py"),
            tracer.violations(),
            [rel("stats_catalog_split.py")],
        )
        assert report.ok, report.render()

    def test_runtime_without_static_is_a_blind_spot(self):
        tracer = self._drive()
        report = cross_validate_cache(
            [], tracer.violations(), [rel("stats_catalog_split.py")]
        )
        assert not report.ok
        assert "blind spot" in report.render()

    def test_static_without_runtime_needs_justification(self):
        findings = analyze("stats_catalog_split.py")
        report = cross_validate_cache(
            findings, [], [rel("stats_catalog_split.py")]
        )
        assert not report.ok
        assert report.unmanifested_static_findings
        justified = cross_validate_cache(
            findings,
            [],
            [rel("stats_catalog_split.py")],
            justified=[f.fingerprint for f in findings],
        )
        assert justified.ok


class _RacyStampTopology(_RacyVersion, stamp_after_read.Topology):
    """The stamped-primitive fixture with a racing version read."""


class TestStampAfterRead:
    """Bug class 5: the primitive's stamp read after the data it certifies."""

    def test_static_checker_flags_exactly_cc002(self):
        findings = analyze("stamp_after_read.py", PRIMITIVE)
        assert {f.rule_id for f in findings} == {"CC002"}
        (finding,) = findings
        assert finding.path.endswith("stamp_after_read.py")
        assert finding.symbol.endswith("route")
        assert "StampedLRUCache fill keys on a version captured" in (
            finding.message
        )

    def test_primitive_alone_is_clean(self):
        assert analyze("stamp_after_read.py") == []
        assert run_analysis([PRIMITIVE], root=REPO_ROOT, select=["CC"]) == []

    def _drive(self):
        tracer = CacheTracer()
        topo = _RacyStampTopology()
        orig_bump = topo._bump_metadata_version

        def bump():
            tracer.advance("metadata")
            return orig_bump()

        topo._bump_metadata_version = bump
        topo.move_chunk("c0", "s0")
        # Derivation-time snapshot: route() starts deriving now.
        snapshot = tracer.snapshot()
        trace_cache(
            topo.routes, tracer, "routes", "CC002", at=lambda key: snapshot
        )
        # The first version read stamps the lookup; the racing split
        # lands on the second — after the chunk-map read, before the
        # stamp is captured for the fill.
        topo.reads_before_race = 1
        topo.race = lambda: topo.move_chunk("c1", "s1")
        stale = topo.route((0, 10))
        assert "c1" not in stale  # derived before the split
        # The live version now matches the stale entry's stamp: a hit.
        served = topo.route((0, 10))
        assert served == stale
        assert topo.routes.stats()["hits"] == 1
        return tracer

    def test_trace_oracle_observes_the_stale_hit(self):
        tracer = self._drive()
        families = {v.family for v in tracer.violations()}
        assert families == {"CC002"}

    def test_both_verdicts_cross_validate(self):
        tracer = self._drive()
        report = cross_validate_cache(
            analyze("stamp_after_read.py", PRIMITIVE),
            tracer.violations(),
            [rel("stamp_after_read.py")],
        )
        assert report.ok, report.render()

    def test_runtime_without_static_is_a_blind_spot(self):
        tracer = self._drive()
        report = cross_validate_cache(
            [], tracer.violations(), [rel("stamp_after_read.py")]
        )
        assert not report.ok
        assert "blind spot" in report.render()


class TestShippedCaches:
    """The shipped tree holds no cache, and its static model agrees."""

    def test_shipped_tree_cross_validates_clean(self, shipped_findings):
        findings = shipped_findings("CC")
        # The only finding the shipped tree carries is the justified
        # CC006 sharing note, which has no runtime shape and is out of
        # cross-validation scope by design.
        assert {f.rule_id for f in findings} <= {"CC006"}
        # Every read routes from the live chunk map: no shipped code
        # path fills a cache, so the trace of any workload is empty,
        # and the default scope (the routing modules) holds no
        # CC001-CC004 finding that would then go unmanifested.
        report = cross_validate_cache(findings, [])
        assert report.ok, report.render()
