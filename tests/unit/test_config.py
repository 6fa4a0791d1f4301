"""Unit tests for error-bound resolution and quantizer configuration."""

import math

import numpy as np
import pytest

from repro.config import (
    ErrorBound,
    ErrorBoundMode,
    QuantizerConfig,
    resolve_error_bound,
)
from repro.errors import ConfigError


class TestQuantizerConfig:
    def test_default_is_16_bit(self):
        q = QuantizerConfig()
        assert q.bits == 16
        assert q.capacity == 65536
        assert q.radius == 32768

    def test_ghostsz_reserved_bits(self):
        q = QuantizerConfig(bits=16, reserved_bits=2)
        assert q.capacity == 16384  # paper §4.1
        assert q.radius == 8192

    def test_rejects_bad_bits(self):
        with pytest.raises(ConfigError):
            QuantizerConfig(bits=1)
        with pytest.raises(ConfigError):
            QuantizerConfig(bits=33)

    def test_rejects_bad_reserved(self):
        with pytest.raises(ConfigError):
            QuantizerConfig(bits=16, reserved_bits=15)
        with pytest.raises(ConfigError):
            QuantizerConfig(bits=16, reserved_bits=-1)

    def test_capacity_scales_with_bits(self):
        for bits in (8, 12, 16, 20):
            assert QuantizerConfig(bits=bits).capacity == 1 << bits


class TestResolveErrorBound:
    def test_abs_mode_passthrough(self):
        data = np.array([0.0, 10.0])
        b = resolve_error_bound(data, 0.5, ErrorBoundMode.ABS)
        assert b.absolute == 0.5
        assert not b.base2

    def test_vr_rel_scales_with_range(self):
        data = np.array([2.0, 12.0])  # range 10
        b = resolve_error_bound(data, 1e-3, ErrorBoundMode.VR_REL)
        assert b.absolute == pytest.approx(1e-2)

    def test_vr_rel_constant_field_uses_unit_range(self):
        data = np.full(10, 3.14)
        b = resolve_error_bound(data, 1e-3, "vr_rel")
        assert b.absolute == pytest.approx(1e-3)

    def test_string_mode_accepted(self):
        data = np.array([0.0, 1.0])
        b = resolve_error_bound(data, 1e-3, "abs")
        assert b.mode is ErrorBoundMode.ABS

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            resolve_error_bound(np.array([0.0, 1.0]), 1e-3, "bogus")

    def test_nonpositive_bound_rejected(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                resolve_error_bound(np.array([0.0, 1.0]), bad, "abs")

    @pytest.mark.parametrize("mode", ["abs", "vr_rel", "pw_rel"])
    def test_integer_beyond_float_range_rejected(self, mode):
        # math.isfinite(10**400) raises OverflowError; the bound check
        # names the value instead, as it does for -10**400
        for bad in (10**400, -(10**400)):
            with pytest.raises(ConfigError, match="positive finite"):
                resolve_error_bound(np.array([0.0, 1.0]), bad, mode)

    def test_integer_beyond_float_range_rejected_by_codec_and_store(self, tmp_path):
        from repro.codec.registry import get_codec
        from repro.store import ArrayStore

        field = np.linspace(0, 1, 64, dtype=np.float32).reshape(8, 8)
        with pytest.raises(ConfigError, match="positive finite"):
            get_codec("wavesz-dp").compress(field, 10**400, "abs")
        store = ArrayStore(tmp_path / "s")
        with pytest.raises(ConfigError, match="positive finite"):
            store.put("a", field, "sz14", 10**400)
        assert store.ls() == []

    def test_base2_tightens_to_power_of_two(self):
        data = np.array([0.0, 1.0])
        b = resolve_error_bound(data, 1e-3, "vr_rel", base2=True)
        # Paper Table 3: 1e-3 -> 2^-10.
        assert b.exponent == -10
        assert b.absolute == 2.0**-10
        assert b.absolute <= 1e-3  # never looser than requested

    def test_base2_exact_power_unchanged(self):
        data = np.array([0.0, 1.0])
        b = resolve_error_bound(data, 0.25, "abs", base2=True)
        assert b.absolute == 0.25
        assert b.exponent == -2

    def test_base2_always_tighter_or_equal(self):
        data = np.array([0.0, 1.0])
        for eb in (1e-1, 3e-2, 1e-3, 7e-4, 1e-5, 0.9):
            b = resolve_error_bound(data, eb, "abs", base2=True)
            assert b.absolute <= eb
            assert b.absolute > eb / 2  # nearest power of two

    def test_pw_rel_uses_log2_bound(self):
        data = np.array([1.0, 2.0])
        b = resolve_error_bound(data, 1e-2, ErrorBoundMode.PW_REL)
        assert b.absolute == pytest.approx(math.log2(1 + 1e-2), abs=1e-4)
        assert b.absolute < math.log2(1 + 1e-2)  # safety margin applied

    def test_pw_rel_rejects_ge_one(self):
        with pytest.raises(ConfigError):
            resolve_error_bound(np.array([1.0, 2.0]), 1.5, ErrorBoundMode.PW_REL)

    def test_nonfinite_data_rejected_for_vr_rel(self):
        with pytest.raises(ConfigError):
            resolve_error_bound(np.array([0.0, np.inf]), 1e-3, "vr_rel")


class TestErrorBoundDataclass:
    def test_integer_beyond_float_range_rejected(self):
        for value, absolute in ((10**400, 1e-3), (1e-3, 10**400)):
            with pytest.raises(ConfigError, match="positive finite"):
                ErrorBound(mode=ErrorBoundMode.ABS, value=value, absolute=absolute)

    def test_base2_requires_exponent(self):
        with pytest.raises(ConfigError):
            ErrorBound(mode=ErrorBoundMode.ABS, value=1e-3, absolute=2**-10, base2=True)

    def test_base2_exponent_must_match(self):
        with pytest.raises(ConfigError):
            ErrorBound(
                mode=ErrorBoundMode.ABS,
                value=1e-3,
                absolute=1e-3,
                base2=True,
                exponent=-10,
            )
