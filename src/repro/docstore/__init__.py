"""A single-node document store modelled on MongoDB.

Documents, B-tree indexes (single-field, compound, 2dsphere, hashed), a
MongoDB-style query language and planner, the two aggregation stages the
reproduction uses (``$bucketAuto`` for zones, ``$project`` for find
projections), and storage-size accounting — everything the paper's
evaluation relies on from a single ``mongod``.
"""

from repro.docstore.bson import MAXKEY, MINKEY, MaxKey, MinKey, ObjectId
from repro.docstore.collection import Collection, FindResult
from repro.docstore.cursor import Cursor
from repro.docstore.database import Database
from repro.docstore.executor import ExecutionStats
from repro.docstore.index import (
    ASCENDING,
    DESCENDING,
    GEOSPHERE,
    HASHED,
    Index,
    IndexDefinition,
    IndexField,
)
from repro.docstore.storage import StorageModel

__all__ = [
    "MAXKEY",
    "MINKEY",
    "MaxKey",
    "MinKey",
    "ObjectId",
    "Collection",
    "FindResult",
    "Cursor",
    "Database",
    "ExecutionStats",
    "ASCENDING",
    "DESCENDING",
    "GEOSPHERE",
    "HASHED",
    "Index",
    "IndexDefinition",
    "IndexField",
    "StorageModel",
]
