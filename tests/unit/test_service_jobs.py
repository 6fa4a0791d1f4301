"""Unit tests for the service job model."""

import numpy as np
import pytest

from repro.errors import ConfigError, ContainerError, DTypeError, ShapeError
from repro.service.jobs import CompressionJob, JobState, make_job


class TestJobValidation:
    def test_make_job_assigns_ids(self, smooth2d):
        a = make_job("sz14", smooth2d)
        b = make_job("sz14", smooth2d)
        assert a.job_id != b.job_id

    def test_any_registry_name_accepted(self, smooth2d):
        for name in ("sz14", "SZ-1.4", "SZ-2.0+", "wavesz-g"):
            assert make_job(name, smooth2d).codec == name

    def test_unknown_codec_rejected(self, smooth2d):
        with pytest.raises(ContainerError, match="sz3000"):
            make_job("sz3000", smooth2d)

    def test_compress_needs_data(self):
        with pytest.raises(ConfigError, match="data"):
            CompressionJob(job_id="x", codec="sz14")

    def test_int_data_rejected(self):
        with pytest.raises(DTypeError):
            make_job("sz14", np.zeros((8, 8), dtype=np.int32))

    def test_bad_bound_rejected(self, smooth2d):
        with pytest.raises(ConfigError, match="bound"):
            make_job("sz14", smooth2d, eb=0.0)

    def test_bad_deadline_rejected(self, smooth2d):
        with pytest.raises(ConfigError, match="deadline"):
            make_job("sz14", smooth2d, deadline_s=-1.0)

    def test_decompress_needs_payload(self):
        with pytest.raises(ConfigError, match="payload"):
            make_job("auto", op="decompress")

    def test_unknown_op_rejected(self, smooth2d):
        with pytest.raises(ConfigError, match="op"):
            make_job("sz14", smooth2d, op="transmogrify")

    def test_bad_n_tiles_rejected(self, smooth2d):
        with pytest.raises(ConfigError, match="n_tiles"):
            make_job("sz14", smooth2d, n_tiles=0)

    def test_tiles_need_a_compress_job(self):
        with pytest.raises(ConfigError, match="compress"):
            make_job("auto", op="decompress", payload=b"x", n_tiles=2)

    def test_tiles_need_a_2d_field(self):
        with pytest.raises(ShapeError, match="tiling needs a 2D or higher"):
            make_job("wavesz-dp", np.zeros(64, dtype=np.float32), n_tiles=2)

    def test_tiled_compress_job_accepted(self, smooth2d):
        assert make_job("wavesz-dp", smooth2d, n_tiles=4).n_tiles == 4

    def test_metrics_key(self, smooth2d):
        assert make_job("wavesz-g", smooth2d).metrics_key == "wavesz-g"
        j = make_job("auto", op="decompress", payload=b"x")
        assert j.metrics_key == "decompress"

    def test_input_bytes(self, smooth2d):
        assert make_job("sz14", smooth2d).input_bytes == smooth2d.nbytes
        j = make_job("auto", op="decompress", payload=b"abcd")
        assert j.input_bytes == 4


class TestJobState:
    def test_terminal_states(self):
        terminal = {
            JobState.DONE, JobState.FAILED, JobState.EXPIRED,
            JobState.REJECTED,
        }
        for s in JobState:
            assert s.terminal == (s in terminal)
