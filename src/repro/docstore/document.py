"""Document helpers: dotted-path access and deep utilities.

MongoDB addresses nested fields with dotted paths
(``location.coordinates``); the matcher, indexes, and projections all
share these helpers.
"""

from __future__ import annotations

import copy
import datetime as _dt
from collections.abc import Mapping, MutableMapping, Sequence
from typing import Any, Iterator, Tuple

from repro.docstore.bson import ObjectId

__all__ = [
    "MISSING",
    "get_path",
    "set_path",
    "has_path",
    "iter_paths",
    "deep_copy_document",
    "fast_copy_document",
]


class _Missing:
    """Sentinel distinguishing an absent field from a ``None`` value."""

    _instance: "_Missing | None" = None

    def __new__(cls) -> "_Missing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MISSING"

    def __bool__(self) -> bool:
        return False


MISSING = _Missing()


def get_path(document: Mapping[str, Any], path: str) -> Any:
    """Value at a dotted path, or :data:`MISSING` if absent.

    Numeric path components index into arrays, mirroring MongoDB
    (``coordinates.0`` is the longitude of a GeoJSON point).
    """
    if type(document) is dict and "." not in path:
        return document.get(path, MISSING)
    current: Any = document
    for part in path.split("."):
        if isinstance(current, Mapping):
            if part not in current:
                return MISSING
            current = current[part]
        elif isinstance(current, Sequence) and not isinstance(
            current, (str, bytes)
        ):
            if not part.isdigit():
                return MISSING
            idx = int(part)
            if idx >= len(current):
                return MISSING
            current = current[idx]
        else:
            return MISSING
    return current


def has_path(document: Mapping[str, Any], path: str) -> bool:
    """True when the dotted path resolves to any value (even ``None``)."""
    return get_path(document, path) is not MISSING


def set_path(
    document: MutableMapping[str, Any], path: str, value: Any
) -> None:
    """Set a dotted path, creating intermediate objects as needed."""
    parts = path.split(".")
    current: MutableMapping[str, Any] = document
    for part in parts[:-1]:
        nxt = current.get(part)
        if not isinstance(nxt, MutableMapping):
            nxt = {}
            current[part] = nxt
        current = nxt
    current[parts[-1]] = value


def iter_paths(
    document: Mapping[str, Any], prefix: str = ""
) -> Iterator[Tuple[str, Any]]:
    """Yield every (dotted path, leaf value) pair in the document."""
    for key, value in document.items():
        path = "%s.%s" % (prefix, key) if prefix else key
        if isinstance(value, Mapping) and value:
            yield from iter_paths(value, path)
        else:
            yield path, value


def deep_copy_document(document: Mapping[str, Any]) -> dict:
    """A deep copy safe to hand to callers without aliasing storage."""
    return copy.deepcopy(dict(document))


#: Value types shared between storage and result copies: immutable, so
#: aliasing them cannot leak mutations back into the store.
_IMMUTABLE_SCALARS = (
    str,
    int,
    float,
    bool,
    bytes,
    type(None),
    _dt.datetime,
    _dt.date,
    ObjectId,
)


def fast_copy_document(document: Mapping[str, Any]) -> dict:
    """A structural copy specialized to BSON-shaped documents.

    Produces a result ``==`` to :func:`deep_copy_document` for every
    document this store holds, but only allocates for the mutable
    containers (dicts, lists, tuples); scalars — including datetimes
    and ObjectIds, which are immutable — are shared by reference.
    ``copy.deepcopy``'s generic memo machinery is the single largest
    cost of the read hot path, which is why query results are copied
    with this instead.
    """
    # One C-level shallow copy, then only the (few) container values
    # are replaced: documents are mostly flat scalars.
    out = dict(document)
    for key, value in out.items():
        if type(value) not in _IMMUTABLE_SCALAR_SET:
            out[key] = _fast_copy_value(value)
    return out


_IMMUTABLE_SCALAR_SET = frozenset(_IMMUTABLE_SCALARS)


def _fast_copy_value(value: Any) -> Any:
    # Exact-type set membership first: stored documents hold plain
    # stdlib values almost exclusively, and one hash lookup beats the
    # eight-way isinstance sweep below (subclasses still take it).
    kind = type(value)
    if kind in _IMMUTABLE_SCALAR_SET:
        return value
    if kind is dict:
        # A flat container (all values immutable scalars) is copied by
        # one C-level call; the superset test is one C-level pass too.
        if _IMMUTABLE_SCALAR_SET.issuperset(map(type, value.values())):
            return dict(value)
        return {
            k: v
            if type(v) in _IMMUTABLE_SCALAR_SET
            else _fast_copy_value(v)
            for k, v in value.items()
        }
    if kind is list:
        if _IMMUTABLE_SCALAR_SET.issuperset(map(type, value)):
            return list(value)
        return [
            v if type(v) in _IMMUTABLE_SCALAR_SET else _fast_copy_value(v)
            for v in value
        ]
    if isinstance(value, _IMMUTABLE_SCALARS):
        return value
    if isinstance(value, dict):
        return {k: _fast_copy_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_fast_copy_value(v) for v in value]
    if isinstance(value, tuple):
        return tuple(_fast_copy_value(v) for v in value)
    # Unknown (possibly mutable) type: stay safe.
    return copy.deepcopy(value)
