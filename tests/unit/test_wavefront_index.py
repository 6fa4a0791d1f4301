"""Unit tests for the wavefront index precompute."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sz.wavefront_index import (
    border_indices,
    interior_wavefronts,
    manhattan_grid,
)


def _coords(flat, shape):
    return np.unravel_index(flat, shape)


class TestInteriorWavefronts:
    @pytest.mark.parametrize("shape", [(2, 2), (5, 9), (9, 5), (7, 7)])
    def test_2d_covers_all_interior_points_once(self, shape):
        groups = interior_wavefronts(shape)
        all_idx = np.concatenate(groups)
        assert all_idx.size == (shape[0] - 1) * (shape[1] - 1)
        assert np.unique(all_idx).size == all_idx.size
        i, j = _coords(all_idx, shape)
        assert (i >= 1).all() and (j >= 1).all()

    @pytest.mark.parametrize("shape", [(2, 2, 2), (4, 5, 6), (6, 3, 4)])
    def test_3d_covers_all_interior_points_once(self, shape):
        groups = interior_wavefronts(shape)
        all_idx = np.concatenate(groups)
        expected = (shape[0] - 1) * (shape[1] - 1) * (shape[2] - 1)
        assert all_idx.size == expected
        assert np.unique(all_idx).size == all_idx.size

    @pytest.mark.parametrize("shape", [(5, 9), (4, 5, 6)])
    def test_groups_have_constant_manhattan_distance(self, shape):
        md = manhattan_grid(shape).reshape(-1)
        for group in interior_wavefronts(shape):
            assert np.unique(md[group]).size == 1

    @pytest.mark.parametrize("shape", [(5, 9), (4, 5, 6)])
    def test_groups_strictly_increasing_distance(self, shape):
        md = manhattan_grid(shape).reshape(-1)
        dists = [int(md[g[0]]) for g in interior_wavefronts(shape)]
        assert dists == sorted(dists)
        assert len(set(dists)) == len(dists)

    @pytest.mark.parametrize("shape", [(6, 8), (4, 5, 6)])
    def test_dependencies_resolved_before_use(self, shape):
        """Every Lorenzo neighbour of a point sits on an earlier wavefront
        or on the border — the property that makes vectorized feedback
        legal (paper §3.1)."""
        from repro.sz.lorenzo import neighbor_offsets

        offsets, _ = neighbor_offsets(shape)
        seen = np.zeros(int(np.prod(shape)), dtype=bool)
        seen[border_indices(shape)] = True
        for group in interior_wavefronts(shape):
            for off in offsets:
                assert seen[group - off].all(), "dependency not yet processed"
            seen[group] = True
        assert seen.all()

    def test_1d_is_sequential_singletons(self):
        groups = interior_wavefronts((6,))
        assert [g.tolist() for g in groups] == [[1], [2], [3], [4], [5]]

    def test_rejects_4d(self):
        with pytest.raises(ShapeError):
            interior_wavefronts((2, 2, 2, 2))

    def test_nothing_is_kept_between_calls(self):
        # a shape's index arrays are retained only by the byte-bounded
        # plan cache of repro.kernels.pqd_fast
        a = interior_wavefronts((5, 6))
        b = interior_wavefronts((5, 6))
        assert a is not b and not hasattr(interior_wavefronts, "cache_info")
        assert [x.tolist() for x in a] == [x.tolist() for x in b]
        assert not hasattr(border_indices, "cache_info")


class TestBorderIndices:
    def test_2d(self):
        idx = border_indices((3, 4))
        i, j = _coords(idx, (3, 4))
        assert ((i == 0) | (j == 0)).all()
        assert idx.size == 3 + 4 - 1

    def test_3d_count(self):
        n0, n1, n2 = 4, 5, 6
        idx = border_indices((n0, n1, n2))
        expected = n0 * n1 * n2 - (n0 - 1) * (n1 - 1) * (n2 - 1)
        assert idx.size == expected

    def test_raster_ordered(self):
        idx = border_indices((5, 5))
        assert (np.diff(idx) > 0).all()

    @pytest.mark.parametrize("shape", [(7,), (2, 2), (3, 4), (4, 5, 6), (2, 9, 3)])
    def test_matches_the_coordinate_definition(self, shape):
        on_border = (np.indices(shape) == 0).any(axis=0).reshape(-1)
        assert border_indices(shape).tolist() == np.flatnonzero(on_border).tolist()


class TestManhattanGrid:
    def test_values(self):
        md = manhattan_grid((3, 3))
        assert md[0, 0] == 0
        assert md[2, 2] == 4
        assert md[1, 2] == 3
