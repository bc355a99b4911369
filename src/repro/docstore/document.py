"""Document helpers: dotted-path access, copies and stored shapes.

MongoDB addresses nested fields with dotted paths
(``location.coordinates``); the matcher, indexes, and projections all
share these helpers.  A :class:`DocumentShape` records where a stored
document's mutable containers are, so that a query result is copied
without testing every field again.
"""

from __future__ import annotations

import copy
import datetime as _dt
from collections.abc import Mapping, MutableMapping, Sequence
from typing import Any, Iterator, List, Tuple

from repro.docstore.bson import ObjectId

__all__ = [
    "MISSING",
    "get_path",
    "set_path",
    "unset_path",
    "iter_paths",
    "deep_copy_document",
    "DocumentShape",
    "copy_with_shape",
    "shape_of",
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


def unset_path(document: MutableMapping[str, Any], path: str) -> None:
    """Remove the field at a dotted path; an absent path is a no-op.

    As in MongoDB's ``$unset``, a path that ends at an array element
    sets that element to ``None`` instead of shifting the array.
    """
    *parents, last = path.split(".")
    current: Any = document
    for part in parents:
        if isinstance(current, MutableMapping):
            current = current.get(part)
        elif _is_index(current, part):
            current = current[int(part)]
        else:
            return
    if isinstance(current, MutableMapping):
        current.pop(last, None)
    elif _is_index(current, last):
        current[int(last)] = None


def _is_index(current: Any, part: str) -> bool:
    return type(current) is list and part.isdigit() and int(part) < len(current)


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
_IMMUTABLE_SCALAR_SET = frozenset(_IMMUTABLE_SCALARS)


class DocumentShape(tuple):
    """Where a stored document's mutable containers are.

    A tuple of ``(key, copier)`` pairs, one per field that holds
    anything but an immutable scalar.  ``copier`` is ``dict`` or
    ``list`` for a container of immutable scalars, a nested
    :class:`DocumentShape` for a plain dict that holds containers, and
    ``_fast_copy_value`` (always safe) for everything else.  Calling a shape on the document it
    describes returns a copy that shares no mutable container with it:
    one C-level ``dict`` copy, then only the named fields are replaced —
    no field's type is tested again.  Shapes compare by value, so equal
    shapes can share one object.

    A shape is true only while its document is unchanged: the
    collection computes it wherever a document enters or changes
    (``Collection._insert_local``, ``_load_local``, ``update_many``).
    """

    __slots__ = ()

    def __call__(self, document: Mapping[str, Any]) -> dict:
        out = dict(document)
        for key, copier in self:
            out[key] = copier(out[key])
        return out


def copy_with_shape(document: Mapping[str, Any]) -> Tuple[dict, DocumentShape]:
    """A private copy of ``document`` and its shape, from one walk.

    The copy is ``==`` to :func:`deep_copy_document` and shares no
    mutable container with ``document``; immutable scalars (datetimes
    and ObjectIds included) are shared by reference.
    """
    out = dict(document)
    return out, _shape(out, copying=True)


def shape_of(document: dict) -> DocumentShape:
    """The shape of a document the store already owns (no copy)."""
    return _shape(document, copying=False)


def _shape(out: dict, copying: bool) -> DocumentShape:
    # With ``copying``, ``out`` is a fresh top-level copy whose
    # containers are replaced by copies as the walk meets them
    # (replacing a value does not disturb the iteration).
    entries: List[Tuple[str, Any]] = []
    for key, value in out.items():
        kind = type(value)
        if kind in _IMMUTABLE_SCALAR_SET:
            continue
        if kind is dict:
            if copying:
                value = out[key] = dict(value)
            nested = _shape(value, copying)
            entries.append((key, nested or dict))
        elif kind is list and _IMMUTABLE_SCALAR_SET.issuperset(map(type, value)):
            if copying:
                out[key] = list(value)
            entries.append((key, list))
        elif not isinstance(value, _IMMUTABLE_SCALARS):
            if copying:
                out[key] = _fast_copy_value(value)
            entries.append((key, _fast_copy_value))
    return DocumentShape(entries)


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
