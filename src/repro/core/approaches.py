"""The four evaluated approaches and their deployment recipes.

Section 5.1 ("Methodology") defines them:

* **bslST** — shard on ``date``; local compound index
  ``(location 2dsphere, date)``;
* **bslTS** — shard on ``date``; local compound index
  ``(date, location 2dsphere)``;
* **hil** — shard on ``(hilbertIndex, date)`` with the Hilbert curve
  over the whole globe (13 bits/dimension); the shard-key index *is*
  the spatio-temporal index;
* **hil\\*** — as hil, but the curve covers only the dataset's MBR.

``deploy_approach`` stands up a fresh cluster per approach — the paper
reinstalls MongoDB from scratch between approaches — loads the data,
balances, and optionally applies zones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.cluster.cluster import (
    DEFAULT_CHUNK_MAX_BYTES,
    ClusterTopology,
    ShardedCluster,
)
from repro.cluster.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.core.encoder import DEFAULT_HILBERT_ORDER, SpatioTemporalEncoder
from repro.core.loader import BulkLoader, load_transformed
from repro.core.query import SpatioTemporalQuery
from repro.core.zoning import configure_zones
from repro.docstore.lsm import DurabilityConfig
from repro.geo.geometry import BoundingBox

__all__ = [
    "Approach",
    "BaselineST",
    "BaselineTS",
    "HilbertApproach",
    "Deployment",
    "deploy_approach",
    "make_approach",
    "APPROACH_NAMES",
]

APPROACH_NAMES = ("bslST", "bslTS", "hil", "hilstar")

COLLECTION = "traces"


class Approach:
    """Deployment + querying recipe shared by all four approaches."""

    name: str = ""

    def shard_key_spec(self) -> List[Tuple[str, Any]]:
        """The shard-key fields this approach uses."""
        raise NotImplementedError

    def index_specs(self) -> List[Tuple[List[Tuple[str, Any]], str]]:
        """Secondary indexes beyond the shard-key index."""
        raise NotImplementedError

    def transform(self, document: Mapping[str, Any]) -> dict:
        """Per-document preparation at load time."""
        return dict(document)

    def render_query(
        self, query: SpatioTemporalQuery
    ) -> Tuple[Dict[str, Any], float]:
        """(query document, cell-identification time in ms).

        For hil/hil* the time is
        :meth:`SpatioTemporalQuery.hilbert_ranges`' covering time, the
        figure Table 8 reports.
        """
        raise NotImplementedError

    def zone_field(self) -> str:
        """The field zones are defined on (Section 4.2.4)."""
        raise NotImplementedError


@dataclass
class BaselineST(Approach):
    """bslST: time sharding, (location, date) compound index."""

    name: str = "bslST"

    def shard_key_spec(self) -> List[Tuple[str, Any]]:
        """Shard on the date field (Section 4.1.2)."""
        return [("date", 1)]

    def index_specs(self) -> List[Tuple[List[Tuple[str, Any]], str]]:
        """The (location, date) compound index."""
        return [([("location", "2dsphere"), ("date", 1)], "location_date")]

    def render_query(
        self, query: SpatioTemporalQuery
    ) -> Tuple[Dict[str, Any], float]:
        """The baseline query document (no 1D clauses)."""
        return query.to_baseline_query(), 0.0

    def zone_field(self) -> str:
        """Zones are defined on date."""
        return "date"


@dataclass
class BaselineTS(Approach):
    """bslTS: time sharding, (date, location) compound index."""

    name: str = "bslTS"

    def shard_key_spec(self) -> List[Tuple[str, Any]]:
        """Shard on the date field (Section 4.1.2)."""
        return [("date", 1)]

    def index_specs(self) -> List[Tuple[List[Tuple[str, Any]], str]]:
        """The (date, location) compound index."""
        return [([("date", 1), ("location", "2dsphere")], "date_location")]

    def render_query(
        self, query: SpatioTemporalQuery
    ) -> Tuple[Dict[str, Any], float]:
        """The baseline query document (no 1D clauses)."""
        return query.to_baseline_query(), 0.0

    def zone_field(self) -> str:
        """Zones are defined on date."""
        return "date"


@dataclass
class HilbertApproach(Approach):
    """hil / hil*: Hilbert 1D keys for indexing *and* sharding."""

    encoder: SpatioTemporalEncoder = field(
        default_factory=SpatioTemporalEncoder.hilbert_global
    )
    name: str = "hil"
    max_query_ranges: Optional[int] = None

    @classmethod
    def global_domain(
        cls, order: int = DEFAULT_HILBERT_ORDER
    ) -> "HilbertApproach":
        """The paper's *hil*: curve over the entire globe."""
        return cls(
            encoder=SpatioTemporalEncoder.hilbert_global(order), name="hil"
        )

    @classmethod
    def restricted_domain(
        cls, bbox: BoundingBox, order: int = DEFAULT_HILBERT_ORDER
    ) -> "HilbertApproach":
        """The paper's *hil\\**: curve restricted to the dataset MBR."""
        return cls(
            encoder=SpatioTemporalEncoder.hilbert_for_bbox(bbox, order),
            name="hilstar",
        )

    def shard_key_spec(self) -> List[Tuple[str, Any]]:
        """Shard on (hilbertIndex, date) (Section 4.2.2)."""
        return [(self.encoder.index_field, 1), ("date", 1)]

    def index_specs(self) -> List[Tuple[List[Tuple[str, Any]], str]]:
        # The shard-key index already is the (hilbertIndex, date)
        # compound index; no further index is needed (Appendix A.3).
        """No extra index: the shard-key compound suffices."""
        return []

    def transform(self, document: Mapping[str, Any]) -> dict:
        """Add the hilbertIndex field at load time."""
        return self.encoder.enrich(document)

    def render_query(
        self, query: SpatioTemporalQuery
    ) -> Tuple[Dict[str, Any], float]:
        """Query with the $or of Hilbert ranges."""
        rendering = query.to_hilbert_query(
            self.encoder, max_ranges=self.max_query_ranges
        )
        return rendering.query, rendering.decomposition_ms

    def zone_field(self) -> str:
        """Zones are defined on hilbertIndex."""
        return self.encoder.index_field


def make_approach(
    name: str,
    dataset_bbox: Optional[BoundingBox] = None,
    order: int = DEFAULT_HILBERT_ORDER,
) -> Approach:
    """Approach factory by paper name (bslST, bslTS, hil, hilstar)."""
    if name == "bslST":
        return BaselineST()
    if name == "bslTS":
        return BaselineTS()
    if name == "hil":
        return HilbertApproach.global_domain(order)
    if name == "hilstar":
        if dataset_bbox is None:
            raise ValueError("hilstar needs the dataset bounding box")
        return HilbertApproach.restricted_domain(dataset_bbox, order)
    raise ValueError(
        "unknown approach %r (expected one of %s)" % (name, APPROACH_NAMES)
    )


@dataclass
class Deployment:
    """A loaded cluster ready to serve one approach's queries."""

    approach: Approach
    cluster: ShardedCluster
    collection: str = COLLECTION
    zones_enabled: bool = False

    def execute(self, query: SpatioTemporalQuery):
        """Run a spatio-temporal query; returns (result, decomposition_ms)."""
        rendered, decomposition_ms = self.approach.render_query(query)
        result = self.cluster.find(self.collection, rendered)
        return result, decomposition_ms

    def totals(self) -> dict:
        """Cluster-wide size statistics for the collection."""
        return self.cluster.collection_totals(self.collection)


def deploy_approach(
    approach: Approach,
    documents: Iterable[Mapping[str, Any]],
    topology: Optional[ClusterTopology] = None,
    chunk_max_bytes: int = DEFAULT_CHUNK_MAX_BYTES,
    use_zones: bool = False,
    loader: Optional[BulkLoader] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    durability: Optional["DurabilityConfig"] = None,
) -> Deployment:
    """Stand up a fresh cluster for an approach and load the data.

    Follows the paper's procedure: fresh deployment per approach, bulk
    load, default balancing; when ``use_zones`` is set, zones are then
    computed with ``$bucketAuto`` and the data redistributed.
    ``durability`` mounts the WAL+LSM engine under every shard (see
    :mod:`repro.docstore.lsm`); the default keeps the paper-faithful
    in-memory deployment.
    """
    cluster = ShardedCluster(
        topology=topology,
        chunk_max_bytes=chunk_max_bytes,
        cost_model=cost_model,
        durability=durability,
    )
    cluster.shard_collection(
        COLLECTION, approach.shard_key_spec(), strategy="range"
    )
    for spec, name in approach.index_specs():
        cluster.create_index(COLLECTION, spec, name=name)
    load_transformed(
        cluster, COLLECTION, documents, approach.transform, loader
    )
    if use_zones:
        configure_zones(cluster, COLLECTION, approach.zone_field())
    return Deployment(
        approach=approach,
        cluster=cluster,
        collection=COLLECTION,
        zones_enabled=use_zones,
    )
