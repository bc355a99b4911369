"""BSON-compatible values: ObjectId, Min/MaxKey, ordering, and sizing.

The document store keeps documents as plain Python mappings, but three
pieces of BSON machinery matter for reproducing the paper:

* **ObjectId** — 4-byte timestamp + 5-byte random + 3-byte counter
  (Section 3.1).  The shared-prefix structure of ObjectIds generated
  close in time is what makes the ``_id`` index prefix-compress well,
  the effect behind Fig. 14.
* **Canonical ordering** — B-tree keys mix types (numbers, strings,
  dates, ObjectIds), so a total order across types is required; we
  follow MongoDB's documented type bracketing.
* **Sizing** — collection and index sizes (Tables 4 and 6, Fig. 14)
  need faithful BSON byte counts per document and per index key.
"""

from __future__ import annotations

import datetime as _dt
import os
import struct
import threading
from collections.abc import Mapping
from typing import Any, Iterable, Sequence, Tuple

__all__ = [
    "ObjectId",
    "MinKey",
    "MaxKey",
    "MINKEY",
    "MAXKEY",
    "type_rank",
    "sort_key",
    "compare",
    "bson_document_size",
    "key_bytes",
    "canonical_key_bytes",
]


class ObjectId:
    """A 12-byte MongoDB ObjectId.

    Layout: 4-byte big-endian unix timestamp, 5-byte process-random
    value, 3-byte incrementing counter seeded randomly.  A deterministic
    ``timestamp`` (and optionally ``random_bytes``) can be supplied so
    data generators produce reproducible ids.
    """

    __slots__ = ("_bytes",)

    _counter_lock = threading.Lock()
    _counter = int.from_bytes(os.urandom(3), "big")
    _random = os.urandom(5)

    def __init__(
        self,
        timestamp: float | None = None,
        random_bytes: bytes | None = None,
        counter: int | None = None,
    ) -> None:
        if timestamp is None:
            timestamp = _dt.datetime.now(_dt.timezone.utc).timestamp()
        ts = int(timestamp) & 0xFFFFFFFF
        rnd = self._random if random_bytes is None else random_bytes
        if len(rnd) != 5:
            raise ValueError("random_bytes must be exactly 5 bytes")
        if counter is None:
            with ObjectId._counter_lock:
                ObjectId._counter = (ObjectId._counter + 1) & 0xFFFFFF
                counter = ObjectId._counter
        self._bytes = (
            struct.pack(">I", ts) + rnd + (counter & 0xFFFFFF).to_bytes(3, "big")
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ObjectId":
        """Wrap an existing 12-byte value."""
        if len(raw) != 12:
            raise ValueError("ObjectId must be 12 bytes, got %d" % len(raw))
        oid = cls.__new__(cls)
        oid._bytes = raw
        return oid

    @classmethod
    def from_hex(cls, text: str) -> "ObjectId":
        """Parse a 24-character hex string."""
        return cls.from_bytes(bytes.fromhex(text))

    @property
    def binary(self) -> bytes:
        """The raw 12 bytes."""
        return self._bytes

    @property
    def generation_time(self) -> _dt.datetime:
        """The embedded creation timestamp (UTC)."""
        ts = struct.unpack(">I", self._bytes[:4])[0]
        return _dt.datetime.fromtimestamp(ts, _dt.timezone.utc)

    def __str__(self) -> str:
        return self._bytes.hex()

    def __repr__(self) -> str:
        return "ObjectId(%r)" % self._bytes.hex()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ObjectId) and self._bytes == other._bytes

    def __lt__(self, other: "ObjectId") -> bool:
        if not isinstance(other, ObjectId):
            return NotImplemented
        return self._bytes < other._bytes

    def __le__(self, other: "ObjectId") -> bool:
        if not isinstance(other, ObjectId):
            return NotImplemented
        return self._bytes <= other._bytes

    def __hash__(self) -> int:
        return hash(self._bytes)


class MinKey:
    """Sorts before every other BSON value."""

    _instance: "MinKey | None" = None

    def __new__(cls) -> "MinKey":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MinKey()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MinKey)

    def __hash__(self) -> int:
        return hash("__minkey__")


class MaxKey:
    """Sorts after every other BSON value."""

    _instance: "MaxKey | None" = None

    def __new__(cls) -> "MaxKey":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MaxKey()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MaxKey)

    def __hash__(self) -> int:
        return hash("__maxkey__")


MINKEY = MinKey()
MAXKEY = MaxKey()

# MongoDB's comparison/sort order of BSON types (abridged to the types
# the store supports).  Numbers of any width share one bracket.
_TYPE_RANKS = {
    "minkey": 0,
    "null": 1,
    "number": 2,
    "string": 3,
    "object": 4,
    "array": 5,
    "binary": 6,
    "objectid": 7,
    "bool": 8,
    "date": 9,
    "maxkey": 100,
}


def type_rank(value: Any) -> int:
    """The cross-type bracket a value sorts into."""
    if isinstance(value, MinKey):
        return _TYPE_RANKS["minkey"]
    if isinstance(value, MaxKey):
        return _TYPE_RANKS["maxkey"]
    if value is None:
        return _TYPE_RANKS["null"]
    if isinstance(value, bool):  # before int: bool is an int subclass
        return _TYPE_RANKS["bool"]
    if isinstance(value, (int, float)):
        return _TYPE_RANKS["number"]
    if isinstance(value, str):
        return _TYPE_RANKS["string"]
    if isinstance(value, _dt.datetime):
        return _TYPE_RANKS["date"]
    if isinstance(value, ObjectId):
        return _TYPE_RANKS["objectid"]
    if isinstance(value, bytes):
        return _TYPE_RANKS["binary"]
    if isinstance(value, Mapping):
        return _TYPE_RANKS["object"]
    if isinstance(value, Sequence):
        return _TYPE_RANKS["array"]
    raise TypeError("unorderable BSON value of type %s" % type(value).__name__)


#: NaN's one place in the order: below every number (``-inf``
#: included), as MongoDB sorts it.  A raw ``nan`` inside a key would
#: compare neither below nor above anything and break every bisection.
_NAN_KEY = (_TYPE_RANKS["number"], float("-inf"), -1.0)


def sort_key(value: Any) -> Tuple:
    """A tuple that sorts like MongoDB sorts the value.

    Tuples from different values compare correctly with plain Python
    ``<``, which is what the B-tree relies on.
    """
    rank = type_rank(value)
    if rank in (_TYPE_RANKS["minkey"], _TYPE_RANKS["maxkey"], _TYPE_RANKS["null"]):
        return (rank,)
    if rank == _TYPE_RANKS["number"]:
        number = float(value)
        if number != number:
            return _NAN_KEY
        return (rank, number, 0.0)
    if rank == _TYPE_RANKS["string"]:
        return (rank, value)
    if rank == _TYPE_RANKS["date"]:
        stamp = value
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=_dt.timezone.utc)
        return (rank, stamp.timestamp())
    if rank == _TYPE_RANKS["objectid"]:
        return (rank, value.binary)
    if rank == _TYPE_RANKS["binary"]:
        return (rank, value)
    if rank == _TYPE_RANKS["bool"]:
        return (rank, 1 if value else 0)
    if rank == _TYPE_RANKS["object"]:
        return (
            rank,
            tuple((k, sort_key(v)) for k, v in value.items()),
        )
    if rank == _TYPE_RANKS["array"]:
        return (rank, tuple(sort_key(v) for v in value))
    raise TypeError("unorderable BSON value %r" % (value,))


def compare(a: Any, b: Any) -> int:
    """Three-way comparison under BSON ordering."""
    ka, kb = sort_key(a), sort_key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


def _element_size(name: str, value: Any) -> int:
    """Size in bytes of one BSON element (type byte + cstring name + value).

    Exact built-in types — what loaded documents are made of — are
    dispatched on ``type(value)``; anything else (None, subclasses,
    ObjectId, bytes, Min/MaxKey, other mappings and sequences) takes
    the ``isinstance`` chain below, which alone decides the semantics.
    """
    overhead = 1 + len(name.encode("utf-8")) + 1
    kind = type(value)
    if kind is float or kind is _dt.datetime:
        return overhead + 8
    if kind is str:
        return overhead + 4 + len(value.encode("utf-8")) + 1
    if kind is int:
        # int32 when it fits, else int64
        return overhead + (4 if -(2**31) <= value < 2**31 else 8)
    if kind is bool:
        return overhead + 1
    if kind is dict:
        return overhead + bson_document_size(value)
    if kind is list:
        return overhead + _array_size(value)
    if value is None or isinstance(value, (MinKey, MaxKey)):
        return overhead
    if isinstance(value, bool):
        return overhead + 1
    if isinstance(value, int):
        return overhead + (4 if -(2**31) <= value < 2**31 else 8)
    if isinstance(value, float):
        return overhead + 8
    if isinstance(value, str):
        return overhead + 4 + len(value.encode("utf-8")) + 1
    if isinstance(value, _dt.datetime):
        return overhead + 8
    if isinstance(value, ObjectId):
        return overhead + 12
    if isinstance(value, bytes):
        return overhead + 4 + 1 + len(value)
    if isinstance(value, Mapping):
        return overhead + bson_document_size(value)
    if isinstance(value, Sequence):
        return overhead + _array_size(value)
    raise TypeError("unsizable BSON value of type %s" % type(value).__name__)


def _array_size(values: Sequence) -> int:
    """An array is the document of its elements keyed "0", "1", ..."""
    return bson_document_size({str(i): v for i, v in enumerate(values)})


def bson_document_size(document: Mapping[str, Any]) -> int:
    """Byte size of a document under BSON encoding rules.

    4-byte length prefix + elements + trailing NUL, exactly as the wire
    format defines, so Table 4/6 size accounting is credible.
    """
    total = 5
    for name, value in document.items():
        total += _element_size(name, value)
    return total


def canonical_key_bytes(elements: Iterable[Tuple]) -> bytes:
    """Serialize a canonical index key to order-preserving bytes.

    Canonical keys are tuples of rank-tagged tuples (see
    :func:`sort_key`); this encoding sorts byte-wise exactly like the
    tuples sort, so the storage model can measure prefix compression on
    the same byte strings the index conceptually stores.
    """
    out = bytearray()
    for element in elements:
        _encode_canonical(element, out)
    return bytes(out)


def _encode_canonical(element: Tuple, out: bytearray) -> None:
    if not element or not isinstance(element[0], int):
        # Nested object/array canonical parts: fall back to a stable
        # textual form (still deterministic; exotic as index keys).
        out += repr(element).encode("utf-8") + b"\x00"
        return
    rank = element[0]
    out.append((rank + 1) & 0xFF)
    for part in element[1:]:
        if isinstance(part, bool):
            out.append(1 if part else 0)
        elif isinstance(part, (int, float)):
            bits = struct.unpack(">Q", struct.pack(">d", float(part)))[0]
            if bits & 0x8000000000000000:
                bits ^= 0xFFFFFFFFFFFFFFFF
            else:
                bits ^= 0x8000000000000000
            out += struct.pack(">Q", bits)
        elif isinstance(part, str):
            out += part.encode("utf-8") + b"\x00"
        elif isinstance(part, bytes):
            out += part + b"\x00"
        elif isinstance(part, tuple):
            _encode_canonical(part, out)
        else:
            out += repr(part).encode("utf-8") + b"\x00"


def key_bytes(values: Iterable[Any]) -> bytes:
    """Serialize an index key to order-preserving bytes.

    A simplified WiredTiger *KeyString*: the byte strings compare like
    the keys themselves, which lets the storage model measure prefix
    compression on real byte prefixes (Fig. 14).
    """
    out = bytearray()
    for value in values:
        rank = type_rank(value)
        out.append(rank + 1)
        if value is None or isinstance(value, (MinKey, MaxKey)):
            continue
        if isinstance(value, bool):
            out.append(1 if value else 0)
        elif isinstance(value, (int, float)):
            # Order-preserving float64 encoding: flip sign bit for
            # positives, invert all bits for negatives.
            as_float = float(value)
            if as_float == 0.0:
                as_float = 0.0  # collapse -0.0 to +0.0: they sort equal
            bits = struct.unpack(">Q", struct.pack(">d", as_float))[0]
            if bits & 0x8000000000000000:
                bits ^= 0xFFFFFFFFFFFFFFFF
            else:
                bits ^= 0x8000000000000000
            out += struct.pack(">Q", bits)
        elif isinstance(value, str):
            out += value.encode("utf-8") + b"\x00"
        elif isinstance(value, _dt.datetime):
            stamp = value
            if stamp.tzinfo is None:
                stamp = stamp.replace(tzinfo=_dt.timezone.utc)
            millis = int(stamp.timestamp() * 1000)
            out += struct.pack(">Q", (millis ^ (1 << 63)) & 0xFFFFFFFFFFFFFFFF)
        elif isinstance(value, ObjectId):
            out += value.binary
        elif isinstance(value, bytes):
            out += value + b"\x00"
        else:
            # Nested docs/arrays rarely appear as index keys; fall back
            # to a stable repr that still yields deterministic sizes.
            out += repr(sort_key(value)).encode("utf-8") + b"\x00"
    return bytes(out)
