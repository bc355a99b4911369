"""GeoHash encoding — bit-level and base32 string forms.

MongoDB's 2dsphere/2d indexing stores GeoHash values of 26 bits by
default (Section 3.2 of the paper).  A GeoHash is a Z-order interleaving
of successive longitude/latitude bisections: the first bit splits the
longitude range, the second the latitude range, and so on.  The familiar
string form groups the bits five at a time into a base32 alphabet.

Both forms are provided: the integer form backs the simulated 2dsphere
index (where keys must sort like MongoDB's), and the string form backs
the documentation examples (Athens → ``swbb5ftzes``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.sfc.ranges import QuadtreeCurve

__all__ = [
    "GEOHASH_BASE32",
    "geohash_encode_int",
    "geohash_decode_int",
    "geohash_cell_bounds",
    "geohash_encode",
    "geohash_decode",
    "GeoHashGrid",
]

#: The GeoHash alphabet: digits and lowercase letters minus a, i, l, o.
GEOHASH_BASE32 = "0123456789bcdefghjkmnpqrstuvwxyz"

_BASE32_INDEX = {ch: i for i, ch in enumerate(GEOHASH_BASE32)}

_LON_RANGE = (-180.0, 180.0)
_LAT_RANGE = (-90.0, 90.0)


def geohash_encode_int(lon: float, lat: float, bits: int = 26) -> int:
    """Encode a point to an integer GeoHash of ``bits`` total bits.

    Bits alternate longitude-first, matching the classic GeoHash layout
    and MongoDB's documented behaviour.
    """
    if bits <= 0:
        raise ValueError("bits must be positive, got %r" % bits)
    if not (_LON_RANGE[0] <= lon <= _LON_RANGE[1]):
        raise ValueError("longitude %r out of range [-180, 180]" % lon)
    if not (_LAT_RANGE[0] <= lat <= _LAT_RANGE[1]):
        raise ValueError("latitude %r out of range [-90, 90]" % lat)
    lon_lo, lon_hi = _LON_RANGE
    lat_lo, lat_hi = _LAT_RANGE
    value = 0
    for i in range(bits):
        if i % 2 == 0:  # even bit: longitude
            mid = (lon_lo + lon_hi) / 2
            if lon >= mid:
                value = (value << 1) | 1
                lon_lo = mid
            else:
                value <<= 1
                lon_hi = mid
        else:  # odd bit: latitude
            mid = (lat_lo + lat_hi) / 2
            if lat >= mid:
                value = (value << 1) | 1
                lat_lo = mid
            else:
                value <<= 1
                lat_hi = mid
    return value


def geohash_cell_bounds(
    value: int, bits: int = 26
) -> Tuple[float, float, float, float]:
    """Bounds ``(min_lon, min_lat, max_lon, max_lat)`` of a GeoHash cell."""
    if bits <= 0:
        raise ValueError("bits must be positive, got %r" % bits)
    if not (0 <= value < (1 << bits)):
        raise ValueError("value %r does not fit in %d bits" % (value, bits))
    lon_lo, lon_hi = _LON_RANGE
    lat_lo, lat_hi = _LAT_RANGE
    for i in range(bits):
        bit = (value >> (bits - 1 - i)) & 1
        if i % 2 == 0:
            mid = (lon_lo + lon_hi) / 2
            if bit:
                lon_lo = mid
            else:
                lon_hi = mid
        else:
            mid = (lat_lo + lat_hi) / 2
            if bit:
                lat_lo = mid
            else:
                lat_hi = mid
    return lon_lo, lat_lo, lon_hi, lat_hi


def geohash_decode_int(value: int, bits: int = 26) -> Tuple[float, float]:
    """Centre point ``(lon, lat)`` of an integer GeoHash cell."""
    lon_lo, lat_lo, lon_hi, lat_hi = geohash_cell_bounds(value, bits)
    return (lon_lo + lon_hi) / 2, (lat_lo + lat_hi) / 2


def geohash_encode(lon: float, lat: float, precision: int = 10) -> str:
    """Encode a point to a base32 GeoHash string.

    ``precision`` counts characters; each carries 5 bits.  The paper's
    example: Athens (lat 37.983810, lon 23.727539) → ``swbb5ftzes``.
    """
    if precision <= 0:
        raise ValueError("precision must be positive, got %r" % precision)
    value = geohash_encode_int(lon, lat, bits=5 * precision)
    chars = []
    for i in range(precision):
        shift = 5 * (precision - 1 - i)
        chars.append(GEOHASH_BASE32[(value >> shift) & 0x1F])
    return "".join(chars)


def geohash_decode(text: str) -> Tuple[float, float]:
    """Centre point ``(lon, lat)`` of a base32 GeoHash string."""
    if not text:
        raise ValueError("empty geohash")
    value = 0
    for ch in text:
        try:
            value = (value << 5) | _BASE32_INDEX[ch]
        except KeyError:
            raise ValueError("invalid geohash character %r" % ch) from None
    return geohash_decode_int(value, bits=5 * len(text))


@dataclass(frozen=True)
class GeoHashGrid(QuadtreeCurve):
    """Fixed-precision GeoHash grid used by the simulated 2dsphere index.

    GeoHash *is* a Z-order curve over the lon/lat bisection grid of the
    whole globe, with longitude taking the high bit of each pair, so
    the grid is that quadrant table on that domain: ``bits`` (even, at
    most 64) total bits, ``bits // 2`` per dimension.
    """

    bits: int = 26

    min_x, max_x = _LON_RANGE
    min_y, max_y = _LAT_RANGE

    #: One orientation state: longitude (x) is the high bit of each pair.
    QUADRANTS = (((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)),)

    def __post_init__(self) -> None:
        if self.bits % 2 != 0:
            raise ValueError(
                "bits must be a positive even number, got %r" % self.bits
            )
        super().__post_init__()

    @property
    def order(self) -> int:  # type: ignore[override]
        """Bits per dimension."""
        return self.bits // 2

    def cell_of(self, lon: float, lat: float) -> Tuple[int, int]:
        """Grid cell ``(cx, cy)`` of a point (clamped to the globe).

        The GeoHash bisection itself: its midpoints are exact binary
        fractions of the globe, so a point one ulp below a cell edge
        stays in the cell below.  (The scaled fraction of
        :meth:`QuadtreeCurve.cell_of` can round it across.)
        :meth:`encode` and the covering's corner cells both come from
        here, so a stored key always lies in its query's covering.
        """
        for name, value in (("x", lon), ("y", lat)):
            if value != value:
                raise ValueError("coordinate %s is NaN" % name)
        lon = min(max(lon, self.min_x), self.max_x)
        lat = min(max(lat, self.min_y), self.max_y)
        return self.decode_cell(geohash_encode_int(lon, lat, self.bits))
