"""Property-based tests (hypothesis) for the curve layer."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.reference import reference_decode_cell, reference_encode_cell
from repro.sfc.geohash import (
    GeoHashGrid,
    geohash_cell_bounds,
    geohash_encode,
    geohash_encode_int,
)
from repro.sfc.hilbert import HilbertCurve2D
from repro.sfc.ranges import CurveRange, _coarsen, covering_ranges
from repro.sfc.zorder import ZOrderCurve2D

ORDER = 6
SIDE = 1 << ORDER
HILBERT = HilbertCurve2D(ORDER, 0, 0, SIDE, SIDE)

coords = st.integers(min_value=0, max_value=SIDE - 1)
lons = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
lats = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)


@given(x=coords, y=coords)
def test_hilbert_roundtrip(x, y):
    d = HILBERT.encode_cell(x, y)
    assert HILBERT.decode_cell(d) == (x, y)


@given(d=st.integers(min_value=0, max_value=SIDE * SIDE - 1))
def test_hilbert_inverse_roundtrip(d):
    x, y = HILBERT.decode_cell(d)
    assert HILBERT.encode_cell(x, y) == d


@given(d=st.integers(min_value=0, max_value=SIDE * SIDE - 2))
def test_hilbert_adjacency(d):
    # Consecutive curve positions are always 4-neighbours.
    x1, y1 = HILBERT.decode_cell(d)
    x2, y2 = HILBERT.decode_cell(d + 1)
    assert abs(x1 - x2) + abs(y1 - y2) == 1


@given(
    x=st.integers(min_value=0, max_value=2**20),
    y=st.integers(min_value=0, max_value=2**20),
)
def test_morton_roundtrip(x, y):
    curve = ZOrderCurve2D(order=21)
    assert curve.decode_cell(curve.encode_cell(x, y)) == (x, y)


def _shapes(order):
    """The four curve shapes at one order: Hilbert on the globe (hil)
    and on a dataset-sized domain (hil*), Z-order, and GeoHash."""
    return [
        HilbertCurve2D.global_curve(order),
        HilbertCurve2D(order, 23.5, 37.7, 24.1, 38.2),
        ZOrderCurve2D.global_curve(order),
        GeoHashGrid(2 * order),
    ]


@settings(max_examples=300, deadline=None)
@given(
    order=st.integers(min_value=1, max_value=32),
    shape=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_cell_addressing_matches_the_reference_encoders(order, shape, data):
    # The table-driven addressing against the rotate/flip Hilbert and
    # bit-interleave Morton oracles, which read no QUADRANTS table.
    curve = _shapes(order)[shape]
    n = curve.cells_per_side
    cx = data.draw(st.integers(min_value=0, max_value=n - 1))
    cy = data.draw(st.integers(min_value=0, max_value=n - 1))
    d = data.draw(st.integers(min_value=0, max_value=curve.max_distance))
    assert curve.encode_cell(cx, cy) == reference_encode_cell(curve, cx, cy)
    assert curve.decode_cell(d) == reference_decode_cell(curve, d)


@given(lon=lons, lat=lats)
def test_geohash_int_within_bits(lon, lat):
    value = geohash_encode_int(lon, lat, bits=26)
    assert 0 <= value < 2**26


@given(lon=lons, lat=lats)
def test_geohash_string_prefix_stability(lon, lat):
    long_form = geohash_encode(lon, lat, precision=8)
    short_form = geohash_encode(lon, lat, precision=4)
    assert long_form.startswith(short_form)


@given(lon=lons, lat=lats)
def test_geohash_grid_consistency(lon, lat):
    grid = GeoHashGrid(20)
    value = grid.encode(lon, lat)
    cx, cy = grid.decode_cell(value)
    assert grid.encode_cell(cx, cy) == value
    lon0, lat0, lon1, lat1 = grid.cell_bounds(value)
    assert lon0 - 1e-9 <= lon <= lon1 + 1e-9
    assert lat0 - 1e-9 <= lat <= lat1 + 1e-9


box_coords = st.floats(min_value=0.0, max_value=31.999, allow_nan=False)

#: Four curve shapes at order <= 6: Hilbert over an offset, data-sized
#: domain (the hil* shape), the global Hilbert curve (hil), Z-order,
#: and the GeoHash grid.
COVERING_CURVES = [
    HilbertCurve2D(order=6, min_x=23.5, min_y=37.7, max_x=24.1, max_y=38.2),
    HilbertCurve2D.global_curve(5),
    ZOrderCurve2D(order=6),
    GeoHashGrid(12),
]
fractions = st.floats(min_value=-0.25, max_value=1.25, allow_nan=False)


def _runs(cells):
    """Maximal runs of consecutive curve values, in order."""
    out = []
    for d in sorted(cells):
        if out and out[-1].hi + 1 == d:
            out[-1] = CurveRange(out[-1].lo, d)
        else:
            out.append(CurveRange(d, d))
    return out


@settings(max_examples=150, deadline=None)
@given(
    curve=st.sampled_from(COVERING_CURVES),
    fx=st.tuples(fractions, fractions),
    fy=st.tuples(fractions, fractions),
    limit=st.integers(min_value=1, max_value=8),
)
def test_covering_matches_brute_force(curve, fx, fy, limit):
    # The covering is canonical: exactly the maximal runs of the cells
    # the rectangle intersects (clamped to the domain), and with
    # max_ranges, those runs with the smallest gaps swallowed.  The
    # cells are numbered by the reference encoders: the curve's own
    # encode_cell reads the same QUADRANTS table as the descent.
    x0, y0, x1, y1 = curve.min_x, curve.min_y, curve.max_x, curve.max_y
    fx0, fx1 = sorted(fx)
    fy0, fy1 = sorted(fy)
    box = (
        x0 + fx0 * (x1 - x0),
        y0 + fy0 * (y1 - y0),
        x0 + fx1 * (x1 - x0),
        y0 + fy1 * (y1 - y0),
    )
    cx0, cy0, cx1, cy1 = curve.cell_range_for_box(*box)
    expected = _runs(
        reference_encode_cell(curve, cx, cy)
        for cx in range(cx0, cx1 + 1)
        for cy in range(cy0, cy1 + 1)
    )
    assert covering_ranges(curve, *box) == expected
    if len(expected) > limit:
        expected = _coarsen(expected, limit)
    assert covering_ranges(curve, *box, max_ranges=limit) == expected


@settings(max_examples=30, deadline=None)
@given(
    x0=box_coords,
    y0=box_coords,
    x1=box_coords,
    y1=box_coords,
    limit=st.integers(min_value=1, max_value=6),
)
def test_coarsened_covering_is_superset(x0, y0, x1, y1, limit):
    if x0 > x1:
        x0, x1 = x1, x0
    if y0 > y1:
        y0, y1 = y1, y0
    curve = HilbertCurve2D(order=5, min_x=0, min_y=0, max_x=32, max_y=32)
    full = covering_ranges(curve, x0, y0, x1, y1)
    coarse = covering_ranges(curve, x0, y0, x1, y1, max_ranges=limit)
    assert len(coarse) <= max(limit, 1)
    full_cells = set()
    for r in full:
        full_cells.update(range(r.lo, r.hi + 1))
    coarse_cells = set()
    for r in coarse:
        coarse_cells.update(range(r.lo, r.hi + 1))
    assert full_cells <= coarse_cells


#: Every 2D curve, on the whole globe and on a dataset-sized domain.
EDGE_CURVES = [
    HilbertCurve2D.global_curve(13),
    HilbertCurve2D(order=13, min_x=23.5, min_y=37.8, max_x=24.1, max_y=38.2),
    ZOrderCurve2D.global_curve(13),
    GeoHashGrid(26),
]


def _near_edge(lo, hi, n, k, ulps):
    """The grid line ``k`` of ``n`` over ``[lo, hi]``, moved ``ulps``."""
    value = lo + k * (hi - lo) / n
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.inf if ulps > 0 else -math.inf)
    return min(max(value, lo), hi)


@settings(max_examples=400, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=len(EDGE_CURVES) - 1),
    kx=st.integers(min_value=0, max_value=1 << 13),
    ky=st.integers(min_value=0, max_value=1 << 13),
    ux=st.integers(min_value=-2, max_value=2),
    uy=st.integers(min_value=-2, max_value=2),
    span=st.floats(min_value=0.0, max_value=3.0),
    corner_is_min=st.booleans(),
)
# The 2dsphere miss: latitude 12.458496093749998 is one ulp below the
# GeoHash row edge 12.45849609375.
@example(
    index=3, kx=4324, ky=4663, ux=0, uy=-1, span=0.5, corner_is_min=True
)
def test_point_on_a_cell_edge_lies_in_its_corner_boxs_covering(
    index, kx, ky, ux, uy, span, corner_is_min
):
    """A point within an ulp of a cell edge, as a corner of the query
    box: the cell its stored key names must be in the box's covering
    (uniform floats never land there; the 2dsphere miss did)."""
    curve = EDGE_CURVES[index]
    min_x, min_y = curve.min_x, curve.min_y
    max_x, max_y = curve.max_x, curve.max_y
    n = curve.cells_per_side
    x = _near_edge(min_x, max_x, n, kx, ux)
    y = _near_edge(min_y, max_y, n, ky, uy)
    dx = span * (max_x - min_x) / n
    dy = span * (max_y - min_y) / n
    if corner_is_min:
        box = (x, y, min(x + dx, max_x), min(y + dy, max_y))
    else:
        box = (max(x - dx, min_x), max(y - dy, min_y), x, y)
    key = curve.encode(x, y)
    assert any(r.lo <= key <= r.hi for r in covering_ranges(curve, *box))


@settings(max_examples=300, deadline=None)
@given(
    order=st.integers(min_value=1, max_value=32),
    kx=st.integers(min_value=0, max_value=1 << 32),
    ky=st.integers(min_value=0, max_value=1 << 32),
    ux=st.integers(min_value=-2, max_value=2),
    uy=st.integers(min_value=-2, max_value=2),
)
def test_geohash_grid_encode_is_the_bisection(order, kx, ky, ux, uy):
    # The 2dsphere key is the paper's GeoHash, bit for bit, also within
    # two ulps of a cell edge, where the scaled-fraction cell of the
    # other curves can round across.
    grid = GeoHashGrid(2 * order)
    n = grid.cells_per_side
    lon = _near_edge(-180.0, 180.0, n, kx % (n + 1), ux)
    lat = _near_edge(-90.0, 90.0, n, ky % (n + 1), uy)
    key = grid.encode(lon, lat)
    assert key == geohash_encode_int(lon, lat, 2 * order)
    # On the dyadic globe the grid's bounds are the bisection's, exactly.
    assert grid.cell_bounds(key) == geohash_cell_bounds(key, 2 * order)
