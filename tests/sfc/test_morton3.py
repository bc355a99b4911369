"""Tests for the 3D Morton curve and octree covering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sfc.morton3 import (
    Morton3D,
    covering_ranges_3d,
    morton3_deinterleave,
    morton3_interleave,
)

coords = st.integers(min_value=0, max_value=2**18)


class TestInterleave:
    def test_examples(self):
        assert morton3_interleave(0, 0, 0) == 0
        assert morton3_interleave(0, 0, 1) == 1
        assert morton3_interleave(0, 1, 0) == 2
        assert morton3_interleave(1, 0, 0) == 4

    @given(a=coords, b=coords, c=coords)
    def test_roundtrip(self, a, b, c):
        assert morton3_deinterleave(morton3_interleave(a, b, c)) == (a, b, c)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            morton3_interleave(-1, 0, 0)


class TestMorton3D:
    def test_bijective_small(self):
        curve = Morton3D(2)
        codes = {
            curve.encode_cell(a, b, c)
            for a in range(4)
            for b in range(4)
            for c in range(4)
        }
        assert codes == set(range(64))

    def test_encode_normalized(self):
        curve = Morton3D(4)
        assert curve.encode(0.0, 0.0, 0.0) == 0
        assert curve.encode(0.999, 0.999, 0.999) == curve.max_distance

    def test_clamps(self):
        curve = Morton3D(4)
        assert curve.encode(-1.0, 2.0, 0.5) == curve.encode(0.0, 0.999, 0.5)

    def test_order_limits(self):
        with pytest.raises(ValueError):
            Morton3D(0)
        with pytest.raises(ValueError):
            Morton3D(22)


class TestCovering3D:
    def brute(self, curve, lo, hi):
        qlo = curve.cell_of(*lo)
        qhi = curve.cell_of(*hi)
        return {
            curve.encode_cell(a, b, c)
            for a in range(qlo[0], qhi[0] + 1)
            for b in range(qlo[1], qhi[1] + 1)
            for c in range(qlo[2], qhi[2] + 1)
        }

    @settings(max_examples=25, deadline=None)
    @given(
        bounds=st.tuples(
            *[
                st.floats(min_value=0.0, max_value=0.999, allow_nan=False)
                for _ in range(6)
            ]
        )
    )
    def test_exact_cover(self, bounds):
        lo = tuple(min(a, b) for a, b in zip(bounds[:3], bounds[3:]))
        hi = tuple(max(a, b) for a, b in zip(bounds[:3], bounds[3:]))
        curve = Morton3D(3)
        expected = self.brute(curve, lo, hi)
        got = set()
        for r in covering_ranges_3d(curve, lo, hi):
            got.update(range(r.lo, r.hi + 1))
        assert got == expected

    def test_full_cube_single_range(self):
        curve = Morton3D(3)
        ranges = covering_ranges_3d(curve, (0, 0, 0), (0.999,) * 3)
        assert len(ranges) == 1
        assert ranges[0].lo == 0
        assert ranges[0].hi == curve.max_distance

    def test_max_ranges(self):
        curve = Morton3D(5)
        full = covering_ranges_3d(curve, (0.1, 0.1, 0.1), (0.2, 0.9, 0.9))
        capped = covering_ranges_3d(
            curve, (0.1, 0.1, 0.1), (0.2, 0.9, 0.9), max_ranges=4
        )
        assert len(full) > 4
        assert len(capped) <= 4

    @pytest.mark.parametrize("limit", [0, -1])
    def test_max_ranges_below_one_rejected(self, limit):
        with pytest.raises(ValueError, match="max_ranges"):
            covering_ranges_3d(
                Morton3D(5), (0.1, 0.1, 0.1), (0.2, 0.9, 0.9), limit
            )

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            covering_ranges_3d(Morton3D(3), (0.5, 0, 0), (0.4, 1, 1))

    def test_time_leading_scatters_spatial_queries(self):
        # The ST-Hash weakness the paper cites: with time owning the
        # leading interleaved bits, a spatially-selective query over a
        # long time window covers cells that are totally scattered in
        # key space (no two merge into a run), while the transposed
        # temporally-selective query gets contiguous runs.  Measured as
        # ranges needed per covered cell.
        curve = Morton3D(6)
        spatial_slab = covering_ranges_3d(
            curve, (0.0, 0.40, 0.40), (0.999, 0.42, 0.42)
        )
        temporal_slab = covering_ranges_3d(
            curve, (0.40, 0.0, 0.0), (0.42, 0.999, 0.999)
        )
        spatial_density = len(spatial_slab) / sum(
            r.size for r in spatial_slab
        )
        temporal_density = len(temporal_slab) / sum(
            r.size for r in temporal_slab
        )
        assert spatial_density == 1.0  # fully scattered
        assert temporal_density < 0.5  # merges into runs
