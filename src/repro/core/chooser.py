"""Statistics-driven choice of query strategy (cost-based planning).

The paper's four approaches are *deployments*: each bakes one access
path into the sharding and indexing of its own cluster, and every
query pays that choice whether it fits or not.  A tiny box over a
week of data wants the geo index (bslST); a big box over an hour
wants the time index (bslTS); something in between often wants the
Hilbert covering (hil).  This module makes the choice per query:

* :func:`deploy_adaptive` stands up ONE cluster carrying all three
  access paths — time sharding, the ``(location, date)`` and
  ``(date, location)`` compound indexes, and a ``(hilbertIndex,
  date)`` index over enriched documents;
* :class:`CostBasedChooser` estimates, from the ANALYZE catalog
  (:mod:`repro.docstore.stats`), how many documents each path would
  examine and picks the cheapest, along with the range-decomposition
  granularity for the Hilbert path.

The chooser is deterministic: the same catalog and query always
yield the same :class:`ChooserDecision`, and a missing or stale
catalog (version-stamp rejection) falls back to the deployment's
static default rather than guessing — cost-based planning degrades
to exactly the behaviour the paper measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.cluster.cluster import (
    DEFAULT_CHUNK_MAX_BYTES,
    ClusterTopology,
    ShardedCluster,
)
from repro.cluster.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.core.encoder import DEFAULT_HILBERT_ORDER, SpatioTemporalEncoder
from repro.core.loader import BulkLoader, load_transformed
from repro.core.query import SpatioTemporalQuery
from repro.docstore.stats import CollectionStats

__all__ = [
    "ADAPTIVE_INDEXES",
    "AdaptiveDeployment",
    "ChooserDecision",
    "CostBasedChooser",
    "deploy_adaptive",
]

COLLECTION = "traces"

#: Strategy name -> the index that serves it on the adaptive cluster.
ADAPTIVE_INDEXES: Mapping[str, str] = {
    "bslST": "location_date",
    "bslTS": "date_location",
    "hil": "hilbert_date",
}

#: Hilbert coverings above this spatial selectivity are capped to a
#: coarse decomposition: a box this large gains nothing from
#: fine-grained ranges but still pays the quadtree walk for them.
#: The cap matches the static hil arm's, so a capped chooser decision
#: is never coarser than the configuration it is compared against.
_COARSE_RANGES_SELECTIVITY = 0.05
_COARSE_MAX_RANGES = 256

#: Fixed per-query overhead of the Hilbert path, in document units —
#: the range decomposition plus the larger rendered query.  Keeps the
#: chooser off hil when all three estimates are tiny and hil's setup
#: cost would dominate.
_HIL_OVERHEAD_DOCS = 2.0

#: Weight of an index-key visit relative to a document fetch in the
#: cost function (the classic seq-vs-index page-cost split: a key
#: touch is an in-page comparison, a document fetch a random read).
_KEYS_WEIGHT = 0.1


@dataclass(frozen=True)
class ChooserDecision:
    """One query's chosen strategy and the estimates behind it."""

    name: str
    hint: Optional[str]
    max_ranges: Optional[int]
    estimates: Mapping[str, float]
    used_stats: bool

    def as_dict(self) -> dict:
        """JSON-friendly form for bench output."""
        return {
            "name": self.name,
            "hint": self.hint,
            "maxRanges": self.max_ranges,
            "estimates": dict(self.estimates),
            "usedStats": self.used_stats,
        }


class CostBasedChooser:
    """Pick the cheapest access path for each query from statistics.

    ``stats_provider`` returns the current catalog entry or None — in
    the service wiring it is ``lambda:
    service.collection_stats(collection)``, whose version-stamped read
    already rejects catalogs built before the latest split or DDL, so
    staleness handling collapses into the None branch here.
    """

    def __init__(
        self,
        stats_provider: Callable[[], Optional[CollectionStats]],
        default: str = "bslTS",
        geo_order: int = 13,
        hil_order: int = DEFAULT_HILBERT_ORDER,
    ) -> None:
        if default not in ADAPTIVE_INDEXES:
            raise ValueError(
                "default strategy %r not one of %s"
                % (default, sorted(ADAPTIVE_INDEXES))
            )
        self.stats_provider = stats_provider
        self.default = default
        #: Cell granularity of the 2dsphere geohash component
        #: (``geohash_bits // 2`` — 13 for MongoDB's 26-bit default).
        self.geo_order = geo_order
        #: Cell granularity of the Hilbert index on the adaptive
        #: cluster; finer than ``geo_order`` means smaller candidate
        #: sets on small boxes, at a higher decomposition cost.
        self.hil_order = hil_order
        self.fallbacks = 0
        self.choices: Dict[str, int] = {}

    def _fallback(self) -> ChooserDecision:
        self.fallbacks += 1
        return ChooserDecision(
            name=self.default,
            hint=ADAPTIVE_INDEXES[self.default],
            max_ranges=None,
            estimates={},
            used_stats=False,
        )

    def choose(self, query: SpatioTemporalQuery) -> ChooserDecision:
        """The strategy with the lowest estimated documents examined.

        Deterministic: ties break by strategy name, so the same
        catalog and query always produce the same decision.
        """
        stats = self.stats_provider()
        if stats is None:
            return self._fallback()
        time_sel = stats.time_selectivity(query.time_from, query.time_to)
        geo_sel = stats.space_selectivity(
            query.bbox, snap_order=self.geo_order
        )
        hil_sel = stats.space_selectivity(
            query.bbox, snap_order=self.hil_order
        )
        if time_sel is None or geo_sel is None or hil_sel is None:
            return self._fallback()
        n = float(stats.total_docs)
        # Candidate documents fetched: every path prunes both axes at
        # key level, so candidates are the snapped box intersected
        # with the window at that path's cell granularity.  Keys
        # visited depend on the scan order: the leading component's
        # extent for the compound baselines, the covering cells for
        # the Hilbert path.
        docs_bsl = n * geo_sel * time_sel
        docs_hil = n * hil_sel * time_sel
        estimates = {
            "bslST": docs_bsl + _KEYS_WEIGHT * n * geo_sel,
            "bslTS": docs_bsl + _KEYS_WEIGHT * n * time_sel,
            "hil": (
                docs_hil
                + _KEYS_WEIGHT * n * hil_sel
                + _HIL_OVERHEAD_DOCS
            ),
        }
        name = min(sorted(estimates), key=lambda k: estimates[k])
        max_ranges = None
        if name == "hil" and hil_sel > _COARSE_RANGES_SELECTIVITY:
            max_ranges = _COARSE_MAX_RANGES
        self.choices[name] = self.choices.get(name, 0) + 1
        return ChooserDecision(
            name=name,
            hint=ADAPTIVE_INDEXES[name],
            max_ranges=max_ranges,
            estimates=estimates,
            used_stats=True,
        )


@dataclass
class AdaptiveDeployment:
    """One cluster carrying all three access paths."""

    cluster: ShardedCluster
    encoder: SpatioTemporalEncoder
    collection: str = COLLECTION

    def render(
        self, query: SpatioTemporalQuery, decision: ChooserDecision
    ) -> Tuple[Dict[str, Any], float]:
        """(query document, decomposition ms) for a chosen strategy."""
        if decision.name == "hil":
            rendering = query.to_hilbert_query(
                self.encoder, max_ranges=decision.max_ranges
            )
            return rendering.query, rendering.decomposition_ms
        return query.to_baseline_query(), 0.0


def deploy_adaptive(
    documents: Iterable[Mapping[str, Any]],
    topology: Optional[ClusterTopology] = None,
    chunk_max_bytes: int = DEFAULT_CHUNK_MAX_BYTES,
    order: int = DEFAULT_HILBERT_ORDER,
    loader: Optional[BulkLoader] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> AdaptiveDeployment:
    """Stand up the multi-access-path cluster and load the data.

    Time sharding (the baselines' layout) keeps chunk splits cheap;
    the Hilbert path rides on a secondary ``(hilbertIndex, date)``
    index over documents enriched at load time, so all three
    strategies answer over byte-identical documents.
    """
    encoder = SpatioTemporalEncoder.hilbert_global(order)
    cluster = ShardedCluster(
        topology=topology,
        chunk_max_bytes=chunk_max_bytes,
        cost_model=cost_model,
    )
    cluster.shard_collection(COLLECTION, [("date", 1)], strategy="range")
    cluster.create_index(
        COLLECTION,
        [("location", "2dsphere"), ("date", 1)],
        name=ADAPTIVE_INDEXES["bslST"],
    )
    cluster.create_index(
        COLLECTION,
        [("date", 1), ("location", "2dsphere")],
        name=ADAPTIVE_INDEXES["bslTS"],
    )
    cluster.create_index(
        COLLECTION,
        [(encoder.index_field, 1), ("date", 1)],
        name=ADAPTIVE_INDEXES["hil"],
    )
    load_transformed(cluster, COLLECTION, documents, encoder.enrich, loader)
    return AdaptiveDeployment(cluster=cluster, encoder=encoder)
