"""Runtime epoch tracer: stamp cache fills, recheck at hit time.

The static cache-coherence pass (:mod:`repro.analysis.cachemodel`,
rules CC001–CC006) proves invalidation discipline over every path the
call graph admits; this module is its runtime counterpart.  A
:class:`CacheTracer` keeps one monotonically increasing *generation*
per invalidation **domain** (``"metadata"`` for chunk topology and
DDL — the one domain the shipped caches are governed by — and any
other name a test declares, such as ``"ddl"`` or ``"storage"`` in the
reconstruction fixtures).  Every cache fill is stamped
with the generation vector in force at fill time — or, via the ``at=``
snapshot, at *derivation* time, which is what catches keys computed
from a different version than the data they guard (CC002).  Every hit
rechecks the stamp: a hit whose stamp lags the current generation in
any declared domain is a **stale hit**, recorded as a
:class:`CacheViolation` carrying the CC rule family it manifests.

Domains advance at the *mutation* sites, independently of the caches'
own stamp checks — that independence is the point: the tracer
is ground truth the plumbing must keep up with, and
:func:`~repro.sanitizer.crossval.cross_validate_cache` holds the trace
and the static findings to account for each other.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.cache import StampedLRUCache
from repro.cluster.cluster import ShardedCluster
from repro.service.service import QueryService

__all__ = [
    "CACHE_INSTRUMENTED_PATHS",
    "CacheTracer",
    "CacheViolation",
    "instrument_stats_catalog",
    "instrument_targeting_cache",
    "trace_cache",
]

#: The source files whose caches the tracer can observe — the scope
#: handed to :func:`~repro.sanitizer.crossval.cross_validate_cache` so
#: static CC findings outside the traced surface are not demanded back.
CACHE_INSTRUMENTED_PATHS = (
    "src/repro/cache.py",
    "src/repro/cluster/router.py",
    "src/repro/cluster/cluster.py",
    "src/repro/service/service.py",
    "src/repro/docstore/stats.py",
)


@dataclass(frozen=True)
class CacheViolation:
    """One runtime stale-cache observation.

    ``family`` names the static CC rule the violation corresponds to,
    which is what cross-validation matches on.
    """

    kind: str  # stale-hit
    family: str  # CC001..CC004
    label: str  # which instrumented cache
    detail: str
    seq: int


class CacheTracer:
    """Per-domain generation counters plus fill-time stamps.

    Thread-safe; one tracer per test or workload.  ``advance`` is
    called at (or wrapped around) every mutation of governed state,
    *before* the mutation becomes visible, so any cache entry that can
    still be hit afterwards is provably stale.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._gens: Dict[str, int] = {}
        self._stamps: Dict[Tuple[str, Hashable], Dict[str, int]] = {}
        self._violations: List[CacheViolation] = []
        self._seq = 0

    # -- the epoch vector ------------------------------------------------------

    def advance(self, domain: str) -> int:
        """Bump a domain's generation; returns the new value.

        Call *before* the mutation it describes becomes visible: the
        pre-advance guarantees no window where stale data carries a
        current-looking stamp.
        """
        with self._lock:
            self._seq += 1
            self._gens[domain] = self._gens.get(domain, 0) + 1
            return self._gens[domain]

    def generation(self, domain: str) -> int:
        """The current generation of one domain (0 if never advanced)."""
        with self._lock:
            return self._gens.get(domain, 0)

    def snapshot(self) -> Dict[str, int]:
        """A copy of the full generation vector, for ``record_fill(at=)``.

        Take it when the cached value's *derivation* starts; stamping
        the fill with that snapshot (rather than the fill-time vector)
        is what exposes keys built from a fresher version than the data
        they guard — the CC002 shape.
        """
        with self._lock:
            return dict(self._gens)

    # -- fills and hits --------------------------------------------------------

    def record_fill(
        self,
        label: str,
        key: Hashable,
        domains: Sequence[str],
        at: Optional[Dict[str, int]] = None,
    ) -> None:
        """Stamp one cache entry with its governing generations."""
        with self._lock:
            self._seq += 1
            source = at if at is not None else self._gens
            self._stamps[(label, key)] = {
                domain: source.get(domain, 0) for domain in domains
            }

    def check_hit(
        self,
        label: str,
        key: Hashable,
        domains: Sequence[str],
        family: str = "CC003",
    ) -> bool:
        """Recheck a hit's stamp; returns True when the hit was stale.

        Entries the tracer never saw filled (populated before
        instrumentation) are skipped — only provably stale hits count.
        """
        with self._lock:
            self._seq += 1
            stamp = self._stamps.get((label, key))
            if stamp is None:
                return False
            lagging = [
                (domain, stamp.get(domain, 0), self._gens.get(domain, 0))
                for domain in domains
                if stamp.get(domain, 0) < self._gens.get(domain, 0)
            ]
            if not lagging:
                return False
            self._violations.append(
                CacheViolation(
                    kind="stale-hit",
                    family=family,
                    label=label,
                    detail=(
                        "%s hit key %r with stale stamp: %s"
                        % (
                            label,
                            key,
                            ", ".join(
                                "%s filled@%d current@%d"
                                % (domain, filled, current)
                                for domain, filled, current in lagging
                            ),
                        )
                    ),
                    seq=self._seq,
                )
            )
            return True

    def forget(self, label: str, key: Hashable) -> None:
        """Drop the stamp for one entry (mirror of an eviction)."""
        with self._lock:
            self._stamps.pop((label, key), None)

    # -- reporting -------------------------------------------------------------

    def violations(self) -> List[CacheViolation]:
        """Every stale hit recorded so far, in detection order."""
        with self._lock:
            return list(self._violations)

    def assert_clean(self) -> None:
        """Raise AssertionError when any stale hit was recorded."""
        found = self.violations()
        if found:
            raise AssertionError(
                "cache tracer recorded %d stale hit(s):\n%s"
                % (
                    len(found),
                    "\n".join(
                        "  [%s/%s] %s" % (v.family, v.label, v.detail)
                        for v in found
                    ),
                )
            )


# -- instrumentation of the shipped caches -----------------------------------


def trace_cache(
    cache: StampedLRUCache,
    tracer: CacheTracer,
    label: str,
    family: str,
    at: Optional[Callable[[Hashable], Optional[Dict[str, int]]]] = None,
) -> None:
    """Wire one :class:`~repro.cache.StampedLRUCache` into a tracer.

    Every ``put`` stamps the entry with the ``"metadata"`` generation
    (the one domain the stamped memos are governed by) — or, when
    ``at(key)`` returns a snapshot, with the generation in force when
    the value's derivation started — and every hit rechecks that
    stamp, reporting a lagging one as a stale hit of ``family``.
    """
    orig_get = cache.get
    orig_put = cache.put

    def traced_get(key, stamp=None):  # type: ignore[no-untyped-def]
        value = orig_get(key, stamp)
        if value is not None:
            tracer.check_hit(label, key, ("metadata",), family=family)
        return value

    def traced_put(key, value, stamp=None):  # type: ignore[no-untyped-def]
        snapshot = at(key) if at is not None else None
        tracer.record_fill(label, key, ("metadata",), at=snapshot)
        orig_put(key, value, stamp)

    cache.get = traced_get  # type: ignore[method-assign]
    cache.put = traced_put  # type: ignore[method-assign]


def _advance_metadata_on_bump(
    cluster: ShardedCluster, tracer: CacheTracer
) -> None:
    """Advance ``"metadata"`` inside ``_bump_metadata_version``."""
    orig_bump = cluster._bump_metadata_version

    def traced_bump():  # type: ignore[no-untyped-def]
        tracer.advance("metadata")
        return orig_bump()

    cluster._bump_metadata_version = traced_bump  # type: ignore[method-assign]


def instrument_targeting_cache(
    cluster: ShardedCluster,
    tracer: CacheTracer,
    label: str = "targeting",
) -> CacheTracer:
    """Wire the cluster's targeting memo into a tracer.

    The ``"metadata"`` domain advances inside
    ``_bump_metadata_version`` — the same event that moves every
    entry's stamp out of date — so a later *hit* of an entry filled
    before the bump can only mean a read path that failed to pass the
    live version as its stamp.
    """
    trace_cache(cluster.targeting_cache, tracer, label, "CC003")
    _advance_metadata_on_bump(cluster, tracer)
    return tracer


def instrument_stats_catalog(
    service: QueryService,
    tracer: CacheTracer,
    label: str = "stats-catalog",
) -> CacheTracer:
    """Wire a service's statistics catalog into a tracer.

    ``"metadata"`` governs every catalog entry: it advances inside the
    cluster's ``_bump_metadata_version`` (splits, moves, zones, DDL) —
    the version the catalog is stamped with.  Fills are stamped with a
    *derivation-time* snapshot taken when ``analyze_collection``
    starts: a catalog built from data read before a concurrent bump
    then carries the old vector, exactly as the version stamp captured
    at the top of the ANALYZE pass demands (the CC002 discipline).  A
    stale hit can therefore only mean the read path's stamp validation
    failed — the CC001 family.

    Composes with :func:`instrument_targeting_cache` on the same
    tracer: the shared ``"metadata"`` domain then advances more than
    once per mutation, which is harmless — generations only ever need
    to be monotonic.
    """
    orig_analyze = service.analyze_collection
    #: collection → generation vector at the start of its ANALYZE.
    deriving: Dict[Hashable, Dict[str, int]] = {}

    def traced_analyze(collection, **kwargs):  # type: ignore[no-untyped-def]
        deriving[collection] = tracer.snapshot()
        try:
            return orig_analyze(collection, **kwargs)
        finally:
            deriving.pop(collection, None)

    service.analyze_collection = traced_analyze  # type: ignore[method-assign]
    trace_cache(service.stats_catalog, tracer, label, "CC001", deriving.get)
    _advance_metadata_on_bump(service.cluster, tracer)
    return tracer
