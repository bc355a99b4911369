"""Sharded-cluster substrate: chunks, shards, balancer, zones, router."""

from repro.cluster.balancer import Balancer
from repro.cluster.catalog import CollectionMetadata, ConfigCatalog
from repro.cluster.chunk import Chunk, ShardKeyPattern
from repro.cluster.cluster import (
    ClusterFindResult,
    ClusterTopology,
    ShardedCluster,
)
from repro.cluster.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.cluster.metrics import ClusterQueryStats
from repro.cluster.router import (
    LexBoxChecker,
    TargetingResult,
    shard_key_intervals,
    target_chunks,
)
from repro.cluster.shard import Shard, shard_key_index_name
from repro.cluster.zones import Zone, ZoneSet

__all__ = [
    "Balancer",
    "CollectionMetadata",
    "ConfigCatalog",
    "Chunk",
    "ShardKeyPattern",
    "ClusterFindResult",
    "ClusterTopology",
    "ShardedCluster",
    "DEFAULT_COST_MODEL",
    "CostModel",
    "ClusterQueryStats",
    "LexBoxChecker",
    "TargetingResult",
    "shard_key_intervals",
    "target_chunks",
    "Shard",
    "shard_key_index_name",
    "Zone",
    "ZoneSet",
]
