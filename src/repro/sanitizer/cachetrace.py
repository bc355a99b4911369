"""Runtime epoch tracer: stamp cache fills, recheck at hit time.

The static cache-coherence pass (:mod:`repro.analysis.cachemodel`,
rules CC001–CC006) proves invalidation discipline over every path the
call graph admits; this module is its runtime counterpart.  A
:class:`CacheTracer` keeps one monotonically increasing *generation*
per invalidation **domain** (``"metadata"`` for chunk topology and
DDL, and any other name a test declares, such as ``"ddl"`` or
``"storage"`` in the reconstruction fixtures).  The shipped tree holds
no cache, so what the tracer observes are the cache-coherence
reconstruction fixtures (``tests/analysis/cache_reconstruction``).
Every cache fill is stamped
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
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

__all__ = [
    "CACHE_INSTRUMENTED_PATHS",
    "CacheTracer",
    "CacheViolation",
    "trace_cache",
]

#: The default scope of :func:`~repro.sanitizer.crossval.cross_validate_cache`:
#: the modules that own and read the routing state.  They hold no cache
#: (every read routes from the live chunk map), so the trace of a
#: shipped workload is empty and any CC001–CC004 finding here fails
#: cross-validation unless justified — a memo put back without its
#: invalidation discipline shows up that way.
CACHE_INSTRUMENTED_PATHS = (
    "src/repro/cluster/router.py",
    "src/repro/cluster/cluster.py",
    "src/repro/service/service.py",
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


# -- instrumentation ---------------------------------------------------------


def trace_cache(
    cache: Any,
    tracer: CacheTracer,
    label: str,
    family: str,
    at: Optional[Callable[[Hashable], Optional[Dict[str, int]]]] = None,
) -> None:
    """Wire one stamped cache into a tracer.

    ``cache`` is any object with the stamped interface ``get(key,
    stamp=None)`` / ``put(key, value, stamp=None)``.  Every ``put``
    stamps the entry with the ``"metadata"`` generation — or, when
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

    cache.get = traced_get
    cache.put = traced_put
