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
from tests.small_jobs import EB, MODE, small_jobs

# The plans lib_fields' sweeps ask for: sz14 on the four fields, waveSZ
# on its padded 2D views of the two CESM fields.
LIB_SHAPES = [(360, 720), (361, 721), (20, 10000), (21, 101, 101), (32, 4096), (33, 65, 65)]


@pytest.fixture
def fresh_cache():
    pqd_fast._sweep_plan.clear()
    yield pqd_fast._sweep_plan
    pqd_fast._sweep_plan.clear()


def test_second_cycle_over_the_small_shapes_hits_every_time(fresh_cache):
    fields = [field for codec, field, _ in small_jobs() if codec == "sz14"]
    assert len({f.shape for f in fields}) == 16
    codec = get_codec("sz14")
    fresh_cache.clear()  # drawing the jobs compressed them
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
        fresh_cache(shape, 1, 1)
    assert fresh_cache.misses == 6 and fresh_cache.hits == 0
    assert fresh_cache.nbytes <= fresh_cache.max_bytes
    for shape in LIB_SHAPES:
        fresh_cache(shape, 1, 1)
    assert fresh_cache.hits == 6 and fresh_cache.misses == 6


def test_cached_bytes_never_exceed_the_bound():
    shapes = [(24 + 3 * i, 64 + 4 * i) for i in range(12)] + [(40, 50, 30)]
    sizes = {s: pqd_fast._build_plan(s, 1, 1)[1] for s in shapes}
    # a plan holds at least its gather matrix: 8 bytes per point per offset
    assert sizes[(24, 64)] >= 8 * 23 * 63 * 3
    bound = 3 * max(sizes.values())
    cache = pqd_fast._PlanCache(bound)
    rng = np.random.default_rng(7)
    for k in rng.integers(len(shapes), size=60).tolist():
        shape = shapes[k]
        plan = cache(shape, 1, 1)
        ref = pqd_fast._build_plan(shape, 1, 1)[0]
        assert (plan[3] == ref[3]).all() and plan[4] == ref[4]
        assert cache.nbytes <= bound
        assert cache.nbytes == sum(sizes[key[0]] for key in cache._plans)
        assert next(reversed(cache._plans))[0] == shape  # most recent last
    assert cache.hits and cache.misses


def test_a_plan_larger_than_the_bound_is_built_and_not_kept():
    cache = pqd_fast._PlanCache(1 << 10)
    plan = cache((60, 80), 1, 1)
    assert plan[-1] > 0
    assert cache.nbytes == 0 and not cache._plans
    cache((60, 80), 1, 1)
    assert cache.misses == 2 and cache.hits == 0


def test_least_recently_used_goes_first():
    small = [(30, 40), (31, 41), (32, 42)]
    sizes = [pqd_fast._build_plan(s, 1, 1)[1] for s in small]
    cache = pqd_fast._PlanCache(sizes[0] + sizes[1] + sizes[2] - 1)
    cache(small[0], 1, 1)
    cache(small[1], 1, 1)
    cache(small[0], 1, 1)  # now the second is the oldest
    cache(small[2], 1, 1)
    assert [key[0] for key in cache._plans] == [small[0], small[2]]
