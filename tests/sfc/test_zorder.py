"""Tests for the Z-order (Morton) curve."""

import pytest

from repro.sfc.zorder import ZOrderCurve2D


def _curve(order):
    side = 1 << order
    return ZOrderCurve2D(order, 0, 0, side, side)


class TestMorton:
    def test_interleave_examples(self):
        curve = _curve(2)
        assert curve.encode_cell(0, 0) == 0
        assert curve.encode_cell(1, 0) == 1
        assert curve.encode_cell(0, 1) == 2
        assert curve.encode_cell(1, 1) == 3
        assert curve.encode_cell(2, 0) == 4

    def test_roundtrip(self):
        curve = _curve(9)
        for x in range(0, 300, 7):
            for y in range(0, 300, 11):
                assert curve.decode_cell(curve.encode_cell(x, y)) == (x, y)

    def test_large_values(self):
        curve = _curve(32)
        x, y = 2**31 - 1, 2**30 + 12345
        assert curve.decode_cell(curve.encode_cell(x, y)) == (x, y)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            _curve(4).encode_cell(-1, 0)
        with pytest.raises(ValueError):
            _curve(4).decode_cell(-1)

    def test_z_shape_order(self):
        # Z-order visits (0,0), (1,0), (0,1), (1,1) within each quad.
        curve = _curve(1)
        assert [curve.decode_cell(d) for d in range(4)] == [
            (0, 0), (1, 0), (0, 1), (1, 1)
        ]


class TestZOrderCurve2D:
    def test_bijective_small(self):
        curve = ZOrderCurve2D(order=3, min_x=0, min_y=0, max_x=8, max_y=8)
        ds = {
            curve.encode_cell(x, y) for x in range(8) for y in range(8)
        }
        assert ds == set(range(64))

    def test_encode_decode_consistency(self):
        curve = ZOrderCurve2D.global_curve(10)
        d = curve.encode(23.7, 37.9)
        cx, cy = curve.decode_cell(d)
        assert curve.encode_cell(cx, cy) == d

    def test_cell_bounds_contain_point(self):
        curve = ZOrderCurve2D.global_curve(9)
        d = curve.encode(-70.5, -33.4)
        x0, y0, x1, y1 = curve.cell_bounds(d)
        assert x0 <= -70.5 <= x1
        assert y0 <= -33.4 <= y1

    def test_order_limits(self):
        with pytest.raises(ValueError):
            ZOrderCurve2D(order=0)
        with pytest.raises(ValueError):
            ZOrderCurve2D(order=40)

    def test_rejects_out_of_range_distance(self):
        curve = ZOrderCurve2D(order=2)
        with pytest.raises(ValueError):
            curve.decode_cell(16)

    def test_interface_matches_hilbert(self):
        # The encoder swaps curves freely; both expose the same surface.
        from repro.sfc.hilbert import HilbertCurve2D

        z = ZOrderCurve2D.global_curve(6)
        h = HilbertCurve2D.global_curve(6)
        for attr in (
            "order",
            "cells_per_side",
            "max_distance",
        ):
            assert getattr(z, attr) == getattr(h, attr)
        for method in ("encode", "decode_cell", "encode_cell", "cell_bounds",
                       "cell_range_for_box", "cell_of"):
            assert callable(getattr(z, method))
            assert callable(getattr(h, method))
