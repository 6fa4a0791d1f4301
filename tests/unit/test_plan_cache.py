"""The fast sweeps' plan cache: bounded by the bytes its plans hold.

``kernels/pqd_fast.py`` keeps one plan per ``(eff_shape, margin,
layers)`` (wavefront indices, the neighbour-gather matrix).  A bound on
entries thrashed on the ``svc_small_jobs`` mix, whose 16 ``sz14`` shapes
cycled through 8 slots without a hit; the bound is on bytes now.  The
file runs under both ``REPRO_KERNELS`` modes in CI; the cases that count
hits force the fast kernels, the only ones that ask for a plan.
"""

import numpy as np
import pytest

from repro.codec.registry import get_codec
from repro.kernels import forced, pqd_fast
from repro.lru import BoundedLRU
from tests.small_jobs import EB, MODE, small_jobs

# The plans lib_fields' sweeps ask for: sz14 on the four fields, waveSZ
# on its padded 2D views of the two CESM fields.
LIB_SHAPES = [(360, 720), (361, 721), (20, 10000), (21, 101, 101), (32, 4096), (33, 65, 65)]


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
    sizes = {s: pqd_fast._build_plan(s, 1, 1)[1] for s in shapes}
    # a plan holds at least its gather matrix: 8 bytes per point per offset
    assert sizes[(24, 64)] >= 8 * 23 * 63 * 3
    bound = 3 * max(sizes.values())
    cache = _fresh(monkeypatch, bound)
    rng = np.random.default_rng(7)
    for k in rng.integers(len(shapes), size=60).tolist():
        shape = shapes[k]
        plan = pqd_fast._sweep_plan(shape, 1, 1)
        ref = pqd_fast._build_plan(shape, 1, 1)[0]
        assert (plan[3] == ref[3]).all() and plan[4] == ref[4]
        assert cache.cost <= bound
        keys = list(cache._entries)
        assert cache.cost == sum(sizes[key[0]] for key in keys)
        assert keys[-1][0] == shape  # most recent last
    assert cache.hits and cache.misses


def test_a_plan_larger_than_the_bound_is_built_and_not_kept(monkeypatch):
    cache = _fresh(monkeypatch, 1 << 10)
    plan = pqd_fast._sweep_plan((60, 80), 1, 1)
    assert plan[-1] > 0
    assert cache.cost == 0 and not len(cache)
    pqd_fast._sweep_plan((60, 80), 1, 1)
    assert cache.misses == 2 and cache.hits == 0


def test_least_recently_used_goes_first(monkeypatch):
    small = [(30, 40), (31, 41), (32, 42)]
    sizes = [pqd_fast._build_plan(s, 1, 1)[1] for s in small]
    cache = _fresh(monkeypatch, sizes[0] + sizes[1] + sizes[2] - 1)
    for shape in (small[0], small[1], small[0], small[2]):
        pqd_fast._sweep_plan(shape, 1, 1)  # the third call makes the second oldest
    assert [key[0] for key in cache._entries] == [small[0], small[2]]
