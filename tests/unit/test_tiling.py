"""Unit tests for the shared tile-grid geometry."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tiling import MIN_BAND_ROWS, TileGrid, normalize_slices


class TestRegularGrid:
    def test_matches_linspace_edges(self):
        grid = TileGrid.regular((48, 80), 4)
        edges = np.linspace(0, 48, 5, dtype=int)
        assert grid.starts == tuple(int(e) for e in edges[:-1])
        assert grid.n_tiles == 4
        assert grid.band_range(3) == (int(edges[3]), 48)

    def test_bands_cover_axis_exactly(self):
        for n0 in (4, 5, 7, 31, 100):
            for n_tiles in (1, 2, n0 // 2):
                grid = TileGrid.regular((n0, 3), n_tiles)
                spans = [grid.band_range(t) for t in range(grid.n_tiles)]
                assert spans[0][0] == 0 and spans[-1][1] == n0
                for (a, b), (c, _) in zip(spans, spans[1:]):
                    assert b == c  # contiguous, no gap, no overlap
                assert all(b - a >= MIN_BAND_ROWS for a, b in spans)

    def test_too_many_tiles_raises_with_feasible_max(self):
        with pytest.raises(ShapeError, match="at most 5 tiles"):
            TileGrid.regular((10, 8), 6)

    def test_too_many_tiles_clamps_when_asked(self):
        grid = TileGrid.regular((10, 8), 6, clamp=True)
        assert grid.n_tiles == 5

    def test_huge_request_clamps_to_one(self):
        grid = TileGrid.regular((3, 8), 100, clamp=True)
        assert grid.n_tiles == 1
        assert grid.band_range(0) == (0, 3)

    def test_field_smaller_than_one_band_always_raises(self):
        """Nothing to clamp to: a 1-row field cannot host any band."""
        for clamp in (False, True):
            with pytest.raises(ShapeError, match="smaller than one"):
                TileGrid.regular((1, 8), 1, clamp=clamp)

    def test_zero_tiles_rejected(self):
        with pytest.raises(ShapeError, match="n_tiles"):
            TileGrid.regular((10, 8), 0)


class TestGridValidation:
    def test_from_starts_roundtrip(self):
        grid = TileGrid.regular((48, 80), 3)
        again = TileGrid.from_starts([48, 80], list(grid.starts))
        assert again == grid

    @pytest.mark.parametrize(
        "starts", [[], [1, 10], [0, 10, 10], [0, 50], [0, 10, 5]]
    )
    def test_bad_starts_rejected(self, starts):
        with pytest.raises(ShapeError):
            TileGrid.from_starts((48, 80), starts)

    def test_index_resolution(self):
        grid = TileGrid.regular((48, 80), 4)
        assert grid.resolve(-1) == 3
        assert grid.resolve(0) == 0
        with pytest.raises(ShapeError, match=r"valid: -4\.\.3"):
            grid.resolve(4)
        with pytest.raises(ShapeError, match="-5"):
            grid.resolve(-5)

    def test_tile_slices_and_shape(self):
        grid = TileGrid.regular((48, 80, 3), 4)
        idx = grid.tile_slices(1)
        assert idx[0] == slice(12, 24)
        assert idx[1:] == (slice(0, 80), slice(0, 3))
        assert grid.tile_shape(1) == (12, 80, 3)


class TestOverlap:
    def test_overlapping_is_minimal(self):
        grid = TileGrid.regular((40, 8), 4)  # bands of 10 rows
        assert grid.overlapping(slice(0, 40)) == (0, 1, 2, 3)
        assert grid.overlapping(slice(0, 10)) == (0,)
        assert grid.overlapping(slice(10, 11)) == (1,)
        assert grid.overlapping(slice(9, 11)) == (0, 1)
        assert grid.overlapping(slice(35, 40)) == (3,)

    def test_band_boundaries_are_half_open(self):
        grid = TileGrid.regular((40, 8), 4)
        # row 20 belongs to band 2, not band 1
        assert grid.overlapping(slice(20, 21)) == (2,)


class TestNormalizeSlices:
    def test_defaults_fill_trailing_axes(self):
        assert normalize_slices((10, 20, 3), (slice(2, 5),)) == (
            slice(2, 5), slice(0, 20), slice(0, 3)
        )

    def test_accepts_pairs_and_none(self):
        assert normalize_slices((10, 20), ((2, 5), None)) == (
            slice(2, 5), slice(0, 20)
        )
        assert normalize_slices((10, 20), ((None, 5), (2, None))) == (
            slice(0, 5), slice(2, 20)
        )

    def test_single_window_applies_to_axis0(self):
        assert normalize_slices((10, 20), slice(1, 4)) == (
            slice(1, 4), slice(0, 20)
        )
        assert normalize_slices((10, 20), (1, 4)) == (
            slice(1, 4), slice(0, 20)
        )

    def test_negative_offsets(self):
        assert normalize_slices((10,), (slice(-4, -1),)) == (slice(6, 9),)

    @pytest.mark.parametrize(
        "window", [(slice(5, 5),), (slice(8, 2),), (slice(0, 11),),
                   (slice(0, 4, 2),), ((1, 2, 3),), ("nope",)]
    )
    def test_bad_windows_raise(self, window):
        with pytest.raises(ShapeError):
            normalize_slices((10,), window)

    @pytest.mark.parametrize("bound", ["z", 1.7, True])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_integer_bound_raises_naming_the_axis(self, bound, axis):
        window = [None, None]
        window[axis] = (bound, 5)
        with pytest.raises(ShapeError, match=f"axis {axis}: slice bound"):
            normalize_slices((10, 20), window)

    def test_numpy_integer_bounds_accepted(self):
        assert normalize_slices((10, 20), [(np.int64(1), np.int32(4))]) == (
            slice(1, 4), slice(0, 20)
        )

    def test_too_many_axes(self):
        with pytest.raises(ShapeError, match="slice axes"):
            normalize_slices((10,), (None, None, None))

    def test_two_nones_parse_as_one_full_pair(self):
        """(None, None) is the (start, stop) pair form — one full axis 0."""
        assert normalize_slices((10, 20), (None, None)) == (
            slice(0, 10), slice(0, 20)
        )
