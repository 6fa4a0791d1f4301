"""Unit tests for the wavefront memory-layout transform (Figure 5)."""

import numpy as np
import pytest

from repro.core.wavefront import build_layout, from_wavefront, to_wavefront
from repro.errors import ShapeError
from repro.kernels import pqd_fast
from repro.lru import BoundedLRU
from repro.sz.wavefront_index import manhattan_grid


class TestLayout:
    @pytest.mark.parametrize("shape", [(2, 2), (6, 10), (10, 6), (1, 5), (5, 1)])
    def test_bijection(self, shape):
        rng = np.random.default_rng(0)
        data = rng.normal(size=shape).astype(np.float32)
        stream, layout = to_wavefront(data)
        assert (from_wavefront(stream, layout) == data).all()

    def test_column_count(self):
        layout = build_layout((6, 10))
        assert layout.n_cols == 15  # d0 + d1 - 1

    def test_columns_group_by_manhattan_distance(self):
        shape = (6, 10)
        layout = build_layout(shape)
        md = manhattan_grid(shape).reshape(-1)
        for t in range(layout.n_cols):
            col = layout.column(t)
            assert (md[col] == t).all()

    def test_figure5_example(self):
        """The 6x10 grid of Figure 5a: column 7 holds (0,7)...(5,2)."""
        layout = build_layout((6, 10))
        col = layout.column(7)
        ij = [divmod(int(f), 10) for f in col]
        assert ij == [(0, 7), (1, 6), (2, 5), (3, 4), (4, 3), (5, 2)]

    def test_within_column_ordered_by_row(self):
        layout = build_layout((5, 8))
        for t in range(layout.n_cols):
            rows = layout.column(t) // 8
            assert (np.diff(rows) == 1).all() or rows.size == 1

    def test_column_lengths_sum_to_n(self):
        layout = build_layout((7, 9))
        total = sum(layout.column_length(t) for t in range(layout.n_cols))
        assert total == 63

    def test_inverse_permutation(self):
        layout = build_layout((4, 6))
        inv = layout.inverse()
        assert (layout.flat_order[inv[layout.flat_order]] == layout.flat_order).all()
        assert (inv[layout.flat_order] == np.arange(24)).all()

    def test_no_dependencies_within_column(self):
        """Points in a wavefront column never depend on each other (§3.1):
        no Lorenzo neighbour offset connects two same-column points."""
        shape = (6, 10)
        layout = build_layout(shape)
        from repro.sz.lorenzo import neighbor_offsets

        offsets, _ = neighbor_offsets(shape)
        for t in range(layout.n_cols):
            col = set(layout.column(t).tolist())
            for f in col:
                for off in offsets:
                    assert (f - off) not in col

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            to_wavefront(np.zeros(5, dtype=np.float32))
        with pytest.raises(ShapeError):
            to_wavefront(np.zeros((2, 2, 2), dtype=np.float32))

    def test_stream_length_validated(self):
        layout = build_layout((3, 3))
        with pytest.raises(ShapeError):
            from_wavefront(np.zeros(8), layout)

    def test_kept_under_the_plan_cache_bound(self, monkeypatch):
        """The layout is kept beside the sweep plans, under their byte
        bound: a hit while it fits, rebuilt (equal) when it does not."""
        cache = BoundedLRU(max_cost=1 << 20)
        monkeypatch.setattr(pqd_fast, "_plans", cache)
        layout = build_layout((5, 6))
        assert build_layout((5, 6)) is layout
        assert (cache.hits, cache.misses) == (1, 1)
        held = layout.flat_order.nbytes + layout.col_starts.nbytes
        assert cache.cost == held + pqd_fast._PLAN_OBJECT_BYTES
        monkeypatch.setattr(pqd_fast, "_plans", BoundedLRU(max_cost=held))
        again = build_layout((5, 6))
        assert again is not build_layout((5, 6))
        assert (again.flat_order == layout.flat_order).all()
