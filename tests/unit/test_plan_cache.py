"""The fast sweeps' plan cache: bounded by the bytes its plans hold.

``kernels/pqd_fast.py`` keeps one plan per multi-D ``(eff_shape,
margin, layers)`` (the interior indices in front order, the front
bounds and, on a 3D shape, the neighbour-gather matrix) and the
wavefront layouts of ``core/wavefront.py``; nothing else keeps a shape's
per-point arrays.  A bound on entries thrashed on the ``svc_small_jobs``
mix, whose 16 ``sz14`` shapes cycled through 8 slots without a hit; the
bound is on bytes now.  The file runs under both ``REPRO_KERNELS`` modes
in CI; the cases that count hits force the fast kernels, the only ones
that ask for a plan.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.codec.registry import get_codec
from repro.data.fields import gaussian_random_field
from repro.kernels import forced, pqd_fast
from repro.lru import BoundedLRU
from tests.small_jobs import EB, MODE, small_jobs

# The plans lib_fields' sweeps ask for, with the border each sweeps
# under: sz14's zero-halo shapes of its four fields (the two CESM fields
# share one) and waveSZ's verbatim-border 2D views of them.
LIB_SWEEPS = {
    (360, 720): "verbatim", (361, 721): "padded",
    (20, 10000): "verbatim", (21, 101, 101): "padded",
    (32, 4096): "verbatim", (33, 65, 65): "padded",
}
LIB_SHAPES = list(LIB_SWEEPS)
# ... and the sz14 plan of svc_large_fields' PSL field.
PLAN_SWEEPS = {**LIB_SWEEPS, (541, 1081): "padded"}
PLAN_SHAPES = list(PLAN_SWEEPS)
# Retained plan bytes per interior point, by dimensionality: a 2D plan
# keeps its front-order indices (8 B a point) and 8 B a front; a 3D plan
# adds its 7-column gather matrix.
PLAN_BYTES_PER_POINT_GATE = {2: 9.0, 3: 65.0}


def plan_bytes_per_point(shape: tuple[int, ...]) -> float:
    """Bytes the cache is charged for ``shape``'s plan, per interior point."""
    held = pqd_fast._build_plan(shape, 1, 1)[1] + pqd_fast._PLAN_OBJECT_BYTES
    return held / int(np.prod([n - 1 for n in shape]))


def _fresh(monkeypatch, bound: int = pqd_fast._PLAN_BYTES) -> BoundedLRU:
    """An empty plan cache under ``bound``, in place of the module's."""
    cache = BoundedLRU(max_cost=bound)
    monkeypatch.setattr(pqd_fast, "_plans", cache)
    return cache


@pytest.fixture
def fresh_cache(monkeypatch):
    return _fresh(monkeypatch)


def test_the_module_cache_is_bounded_by_plan_bytes():
    assert pqd_fast._plans.max_cost == pqd_fast._PLAN_BYTES == 128 << 20
    assert pqd_fast._plans.max_entries is None


def test_second_cycle_over_the_small_shapes_hits_every_time(monkeypatch):
    fields = [field for codec, field, _ in small_jobs() if codec == "sz14"]
    assert len({f.shape for f in fields}) == 16
    codec = get_codec("sz14")
    fresh_cache = _fresh(monkeypatch)  # drawing the jobs compressed them
    with forced("fast"):
        for field in fields:
            codec.compress(field, EB, MODE)
        assert fresh_cache.misses == 16
        hits = fresh_cache.hits
        for field in fields:
            codec.compress(field, EB, MODE)
    assert fresh_cache.hits - hits == 16
    assert fresh_cache.misses == 16


def test_every_lib_fields_plan_stays_after_one_pass(fresh_cache):
    for shape in LIB_SHAPES:
        pqd_fast._sweep_plan(shape, 1, 1)
    assert fresh_cache.misses == 6 and fresh_cache.hits == 0
    assert fresh_cache.cost <= fresh_cache.max_cost
    for shape in LIB_SHAPES:
        pqd_fast._sweep_plan(shape, 1, 1)
    assert fresh_cache.hits == 6 and fresh_cache.misses == 6


def test_cached_bytes_never_exceed_the_bound(monkeypatch):
    shapes = [(24 + 3 * i, 64 + 4 * i) for i in range(12)] + [(40, 50, 30)]
    sizes = {
        s: pqd_fast._build_plan(s, 1, 1)[1] + pqd_fast._PLAN_OBJECT_BYTES
        for s in shapes
    }
    # a 2D plan holds its front-order indices and front bounds, no gather
    # matrix; a 3D plan adds its 7-column gather matrix
    assert sizes[(24, 64)] <= 8 * 23 * 63 + 8 * (23 + 63) + 2048
    assert sizes[(40, 50, 30)] >= 8 * 8 * 39 * 49 * 29
    bound = 3 * max(sizes.values())
    cache = _fresh(monkeypatch, bound)
    rng = np.random.default_rng(7)
    for k in rng.integers(len(shapes), size=60).tolist():
        shape = shapes[k]
        plan = pqd_fast._sweep_plan(shape, 1, 1)
        ref = pqd_fast._build_plan(shape, 1, 1)[0]
        assert (plan.all_idx == ref.all_idx).all()
        assert (plan.bounds == ref.bounds).all()
        assert cache.cost <= bound
        keys = list(cache._entries)
        assert cache.cost == sum(sizes[key[0]] for key in keys)
        assert keys[-1][0] == shape  # most recent last
    assert cache.hits and cache.misses


def test_a_plan_larger_than_the_bound_is_built_and_not_kept(monkeypatch):
    cache = _fresh(monkeypatch, 1 << 10)
    plan = pqd_fast._sweep_plan((60, 80), 1, 1)
    assert plan.max_n > 0
    assert cache.cost == 0 and not len(cache)
    pqd_fast._sweep_plan((60, 80), 1, 1)
    assert cache.misses == 2 and cache.hits == 0


def test_least_recently_used_goes_first(monkeypatch):
    small = [(30, 40), (31, 41), (32, 42)]
    sizes = [
        pqd_fast._build_plan(s, 1, 1)[1] + pqd_fast._PLAN_OBJECT_BYTES
        for s in small
    ]
    cache = _fresh(monkeypatch, sizes[0] + sizes[1] + sizes[2] - 1)
    for shape in (small[0], small[1], small[0], small[2]):
        pqd_fast._sweep_plan(shape, 1, 1)  # the third call makes the second oldest
    assert [key[0] for key in cache._entries] == [small[0], small[2]]


@pytest.mark.parametrize("shape", PLAN_SHAPES, ids=str)
def test_plan_bytes_per_interior_point(shape):
    """The count gate ``bench_hotpath.py --smoke`` also applies."""
    plan = pqd_fast._build_plan(shape, 1, 1)[0]
    assert (plan.gidx is None) == (len(shape) == 2)
    assert plan_bytes_per_point(shape) <= PLAN_BYTES_PER_POINT_GATE[len(shape)]


def test_a_1d_sweep_builds_no_plan(fresh_cache):
    field = gaussian_random_field((5000,), seed=3).astype(np.float32)
    with forced("fast"):
        for name in ("sz14", "wavesz-dp"):
            codec = get_codec(name)
            codec.decompress(codec.compress(field, EB, MODE).payload)
    assert (fresh_cache.hits, fresh_cache.misses, len(fresh_cache)) == (0, 0, 0)


# Retained bytes of a pass over SHAPES beyond the plan bound: the codecs'
# own small per-call state (Huffman tables, the stencil cache's entries).
RETAINED_SLACK = 256 << 10


def test_retained_bytes_stay_within_the_bound(monkeypatch):
    """More distinct 2D and 3D shapes than the bound holds, through every
    per-shape constant a codec keeps (sweep plans, padded and verbatim;
    waveSZ's layouts): with every result dropped, what stays allocated is
    the cache's contents and a fixed slack, whatever the shape count."""
    bound = 1 << 20
    shapes = [(40 + 5 * i, 200 + 9 * i) for i in range(8)]
    shapes += [(10 + i, 20 + 2 * i, 30 + i) for i in range(4)]
    runs = [("sz14", s) for s in shapes] + [("wavesz", s) for s in shapes[:8]]

    def one_pass(shapes_run):
        with forced("fast"):
            for name, shape in shapes_run:
                field = gaussian_random_field(shape, seed=len(shape)).astype(np.float32)
                codec = get_codec(name)
                codec.decompress(codec.compress(field, EB, MODE).payload)

    one_pass([("sz14", (12, 13)), ("wavesz", (12, 13)), ("sz14", (5, 6, 7))])
    cache = _fresh(monkeypatch, bound)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        one_pass(runs)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cache.evictions > 0, "the pass must overflow the bound"
    assert cache.cost <= bound
    assert retained <= bound + RETAINED_SLACK, (
        f"{retained} bytes retained under a {bound}-byte plan bound"
    )
