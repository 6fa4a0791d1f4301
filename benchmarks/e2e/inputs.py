"""Seeded inputs and request schedules.

The program under test sees only the arrays and calls generated here.
Every field is a *variant* of a fixed synthetic base field: cyclically
shifted along each non-leading axis by a seeded offset and possibly
mirrored along the last one.  A variant has new bytes (nothing keyed on
content can carry over from one seed to the next) but the statistics of
its base, so compression ratio and codec time repeat across seeds to a
fraction of a percent.  Drawing a new random field per seed
(``load_field(seed_offset=seed)``) moved the aggregate ratio by 4 % and
codec time by more between seeds, which no usable regression bound
survives.  Orders, priorities, slice windows and arrival times are drawn
from the same seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro import load_field
from repro.data.fields import gaussian_random_field

import spec

CESM = "CESM-ATM"
CESM_FIELDS = ("CLDLOW", "CLDHGH", "TS", "PRECT", "FLNS", "PSL", "ICEFRAC", "U10")

#: lib_fields: (label, dataset, field, scale, rows kept of axis 0)
LIB_FIELDS = (
    ("cesm.CLDLOW", CESM, "CLDLOW", 2, None),
    ("cesm.TS", CESM, "TS", 2, None),
    ("hurricane.CLOUDf48", "Hurricane", "CLOUDf48", 1, 20),
    ("nyx.baryon_density", "NYX", "baryon_density", 1, 32),
)

#: svc_large_fields: (label, dataset, field, scale, codec, tiles)
LARGE_CLASSES = (
    ("CLDLOW.wavesz-dp.t2", CESM, "CLDLOW", 3, "wavesz-dp", 2),
    ("TS.wavesz-dp-rans", CESM, "TS", 3, "wavesz-dp-rans", 1),
    ("PSL.sz14", CESM, "PSL", 3, "sz14", 1),
    ("CLDHGH.wavesz-dp-auto", CESM, "CLDHGH", 3, "wavesz-dp-auto", 1),
    ("CLOUDf48.wavesz-dp", "Hurricane", "CLOUDf48", 1, "wavesz-dp", 1),
)

#: svc_small_jobs: 64 fixed shapes of 6-16 KB float32, codec mix 2:1:1
SMALL_N = 64
SMALL_CODECS = ("wavesz-dp-rans", "wavesz-dp", "wavesz-dp-rans", "sz14")
OPEN_RPS = 80.0

#: both store workloads
STORE_SCALE = 3
STORE_CODEC = "wavesz-dp"
STORE_TILES = 8
N_WINDOWS = 40
THRASH_CACHE_BYTES = 4 << 20


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


@dataclass(frozen=True)
class Recipe:
    """How one variant is cut from its base field."""

    shifts: tuple[int, ...]  # one per axis 1..n-1
    mirror: bool

    @staticmethod
    def draw(shape: tuple[int, ...], rng: np.random.Generator) -> "Recipe":
        return Recipe(
            tuple(int(rng.integers(n)) for n in shape[1:]),
            bool(rng.integers(2)),
        )

    def apply(self, base: np.ndarray) -> np.ndarray:
        out = base
        for axis, shift in enumerate(self.shifts, start=1):
            out = np.roll(out, shift, axis=axis)
        if self.mirror:
            out = out[..., ::-1]
        return np.ascontiguousarray(out)


def base_field(dataset: str, field: str, scale: int = 1,
               rows: int | None = None) -> np.ndarray:
    data = load_field(dataset, field, scale=scale)
    return np.ascontiguousarray(data if rows is None else data[:rows])


# -- per-workload plans -------------------------------------------------------
#
# A plan is everything random about a run, as plain JSON-able values.  Its
# digest is the run's request-schedule hash: same seed, same digest.


def lib_plan(seed: int) -> dict:
    rng = _rng(seed, 1)
    return {"recipes": {
        label: Recipe.draw(_shape(ds, f, sc, rows), rng).__dict__
        for label, ds, f, sc, rows in LIB_FIELDS
    }}


def large_plan(seed: int) -> dict:
    rng = _rng(seed, 2)
    return {"recipes": {
        label: Recipe.draw(_shape(ds, f, sc, None), rng).__dict__
        for label, ds, f, sc, _, _ in LARGE_CLASSES
    }}


def small_shape(i: int) -> tuple[int, int]:
    return 24 + 3 * (i % 8), 64 + 4 * (i // 8)


def small_plan(seed: int, open_s: float) -> dict:
    """Variant recipes, codec per job, segment order, priorities, arrivals."""
    rng = _rng(seed, 3)
    order = [int(i) for i in rng.permutation(SMALL_N)]
    gaps = rng.exponential(1.0 / OPEN_RPS, size=int(open_s * OPEN_RPS * 1.5) + 8)
    due = np.cumsum(gaps)
    due = due[due < open_s]
    return {
        "recipes": [Recipe.draw(small_shape(i), rng).__dict__ for i in range(SMALL_N)],
        "codecs": [SMALL_CODECS[i % len(SMALL_CODECS)] for i in range(SMALL_N)],
        "priorities": [int(p) for p in rng.integers(0, 3, size=SMALL_N)],
        "order": order,
        "open_due_s": [round(float(t), 6) for t in due],
        "open_jobs": [int(j) for j in rng.integers(SMALL_N, size=due.size)],
    }


def small_fields(plan: dict) -> list[np.ndarray]:
    return [
        Recipe(**recipe).apply(
            gaussian_random_field(small_shape(i), seed=1000 + i).astype(np.float32)
        )
        for i, recipe in enumerate(plan["recipes"])
    ]


def store_plan(seed: int, max_versions: int = 8) -> dict:
    """Identical for store_local and store_sharded by construction."""
    rng = _rng(seed, 4)
    shape = _shape(CESM, CESM_FIELDS[0], STORE_SCALE, None)
    versions = [
        {f: Recipe.draw(shape, rng).__dict__ for f in CESM_FIELDS}
        for _ in range(max_versions)
    ]
    band = shape[0] // STORE_TILES
    windows = []
    for _ in range(N_WINDOWS):
        # ~0.4 MB straddling one tile boundary, so 2 of 8 tiles decode
        edge = int(rng.integers(1, STORE_TILES)) * band
        lo = edge - int(rng.integers(band // 2, band))
        hi = edge + int(rng.integers(band // 2, band))
        c0 = int(rng.integers(0, shape[1] // 8))
        windows.append({
            "field": CESM_FIELDS[int(rng.integers(len(CESM_FIELDS)))],
            "rows": [lo, hi], "cols": [c0, shape[1] - c0],
        })
    # thrash: skewed towards the first fields, full-width single-tile rows
    skew = rng.zipf(1.6, size=100)
    thrash = [{
        "field": CESM_FIELDS[int(min(k, len(CESM_FIELDS)) - 1)],
        "tile": int(rng.integers(STORE_TILES)),
    } for k in skew]
    return {"versions": versions, "windows": windows, "thrash": thrash}


def store_bases() -> dict[str, np.ndarray]:
    return {f: base_field(CESM, f, STORE_SCALE) for f in CESM_FIELDS}


def window_slices(w: dict) -> tuple[slice, slice]:
    return slice(*w["rows"]), slice(*w["cols"])


def thrash_slices(w: dict, n_rows: int) -> tuple[slice]:
    band = n_rows // STORE_TILES
    return (slice(w["tile"] * band + 1, (w["tile"] + 1) * band - 1),)


def _shape(dataset: str, field: str, scale: int, rows: int | None) -> tuple[int, ...]:
    from repro.data import DATASETS

    dims = tuple(int(n * scale) for n in DATASETS[dataset].repro_dims)
    return dims if rows is None else (rows,) + dims[1:]


def plan_for(workload: str, seed: int, seconds: float = spec.RUN_SECONDS) -> dict:
    if workload == spec.LIB:
        return lib_plan(seed)
    if workload == spec.LARGE:
        return large_plan(seed)
    if workload == spec.SMALL:
        return small_plan(seed, open_seconds(seconds))
    if workload in spec.STORES:
        return store_plan(seed)
    raise KeyError(workload)


def open_seconds(seconds: float) -> float:
    """Length of svc_small_jobs' open-loop phase for a run of ``seconds``."""
    return round(0.4 * seconds, 3)


def schedule_hash(workload: str, seed: int, seconds: float = spec.RUN_SECONDS) -> str:
    blob = json.dumps(plan_for(workload, seed, seconds), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
