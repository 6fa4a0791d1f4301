"""Integration: concurrent mixed-codec batches stay bit-exact.

The acceptance bar for the serving layer: a batch of 64+ jobs across
several codecs, submitted concurrently through the bounded queue and
executed on a real process pool, must produce every payload bit-identical
to the single-threaded compressor path, with backpressure observable and
metrics populated.
"""

import numpy as np
import pytest

from repro.codec.registry import get_codec
from repro.data.fields import gaussian_random_field
from repro.parallel import tile_compress
from repro.service import make_job, run_batch

CODECS = ("sz14", "wavesz", "zfp-like", "ghostsz")
QUEUE_SIZE = 8


@pytest.fixture(scope="module")
def fields():
    out = []
    for seed in range(16):
        g = gaussian_random_field((40, 56), beta=3.8, seed=100 + seed)
        out.append((g / np.abs(g).max()).astype(np.float32))
    return out


@pytest.fixture(scope="module")
def batch_outcome(fields):
    """One 64-job mixed-codec batch over a 2-process pool, queue of 8."""
    jobs = [
        make_job(CODECS[i % len(CODECS)], fields[i % len(fields)],
                 eb=1e-3, mode="vr_rel")
        for i in range(64)
    ]
    results, stats = run_batch(
        jobs, workers=2, pool_kind="process", queue_size=QUEUE_SIZE
    )
    return jobs, results, stats


class TestMixedCodecBatch:
    def test_all_jobs_complete(self, batch_outcome):
        _, results, stats = batch_outcome
        assert all(r is not None for r in results)
        assert stats.totals["completed"] == 64
        assert stats.totals["failed"] == 0

    def test_bit_exact_with_single_threaded_path(self, batch_outcome, fields):
        jobs, results, _ = batch_outcome
        for job, result in zip(jobs, results):
            direct = get_codec(job.codec).compress(job.data, job.eb, job.mode)
            assert result.output == direct.payload, job.codec

    def test_queue_stayed_bounded(self, batch_outcome):
        _, _, stats = batch_outcome
        # blocking submission: the queue never grew past its capacity,
        # which is backpressure doing its job on a 64-job burst
        assert 0 < stats.queue_high_water <= QUEUE_SIZE
        assert stats.totals["rejected"] == 0

    def test_per_codec_counters(self, batch_outcome):
        _, _, stats = batch_outcome
        for codec in CODECS:
            assert stats.jobs[codec]["submitted"] == 16
            assert stats.jobs[codec]["completed"] == 16
            assert stats.latency[codec].count == 16

    def test_latency_percentiles_populated(self, batch_outcome):
        _, _, stats = batch_outcome
        lat = stats.latency["overall"]
        assert lat.count == 64
        assert 0 < lat.p50_s <= lat.p90_s <= lat.p99_s <= lat.max_s
        assert stats.throughput_jobs_per_s > 0
        assert stats.ratio > 1.0


class TestParallelTiling:
    """A tiled job through the scheduler is byte-equal to the serial
    :func:`tile_compress` (classic codecs tile inside one worker, dp
    codecs fan their bands across the pool — same bytes either way)."""

    @staticmethod
    def _scheduled(codec, field, n_tiles, pool_kind):
        (result,), _ = run_batch(
            [make_job(codec, field, n_tiles=n_tiles)],
            workers=2, pool_kind=pool_kind,
        )
        return result

    def test_band_fanout_bit_exact(self, smooth2d):
        for codec in ("sz14", "wavesz", "wavesz-dp"):
            serial = tile_compress(
                get_codec(codec), smooth2d, 1e-3, n_tiles=4
            )
            par = self._scheduled(codec, smooth2d, 4, "process")
            assert par.output == serial.payload
            assert par.stats == serial.stats

    def test_profile_fanout_uses_profile_factory(self, smooth2d):
        serial = tile_compress(
            get_codec("wavesz-g"), smooth2d, 1e-3, n_tiles=3
        )
        par = self._scheduled("wavesz-g", smooth2d, 3, "thread")
        assert par.output == serial.payload


class TestPoolKindsAgree:
    def test_thread_and_process_and_inline_identical(self, smooth2d):
        jobs = [make_job(c, smooth2d) for c in CODECS[:3]]
        baseline, _ = run_batch(jobs, workers=0)
        for kind in ("thread", "process"):
            results, _ = run_batch(jobs, workers=2, pool_kind=kind)
            for b, r in zip(baseline, results):
                assert b.output == r.output
