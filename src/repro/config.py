"""Compressor configuration: error-bound modes and quantizer settings.

SZ variants are parameterised by

* an *error-bound mode* — absolute (``ABS``), value-range relative
  (``VR_REL``, the paper's ``-M REL``), or pointwise relative (``PW_REL``,
  SZ-2.0's logarithmic-transform mode), and
* a *quantizer configuration* — the number of linear-scaling quantization
  bins (SZ-1.4 default ``2**16``) and the radius used to centre the signed
  codes.

waveSZ additionally tightens the resolved bound to the nearest smaller
power of two (``base2=True``) so quantization becomes an exponent-only
operation (paper §3.3, Table 3).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

__all__ = [
    "ErrorBoundMode",
    "QuantizerConfig",
    "ErrorBound",
    "resolve_error_bound",
    "DEFAULT_QUANT_BITS",
]

#: SZ-1.4 default: 16-bit quantization codes (65,536 bins).
DEFAULT_QUANT_BITS = 16


class ErrorBoundMode(enum.Enum):
    """How the user-set bound is interpreted.

    ABS
        ``eb`` is the absolute bound directly.
    VR_REL
        ``eb`` is relative to the data value range ``max - min`` (the
        paper's evaluation uses ``VR_REL = 1e-3`` throughout).
    PW_REL
        ``eb`` is pointwise-relative; implemented via the SZ-2.0
        logarithmic preprocessing transform, after which it reduces to an
        ABS bound in log space.
    """

    ABS = "abs"
    VR_REL = "vr_rel"
    PW_REL = "pw_rel"


@dataclass(frozen=True)
class QuantizerConfig:
    """Linear-scaling quantizer parameters (Algorithm 1).

    Attributes
    ----------
    bits:
        Width of a quantization code in bits.  The number of representable
        bins is ``2**bits``; code 0 is reserved for unpredictable points.
    reserved_bits:
        Bits stolen from the code for side information.  GhostSZ spends 2
        bits encoding which of the Order-{0,1,2} fits was chosen, leaving
        only ``2**(bits-2)`` usable bins (paper §4.1).
    """

    bits: int = DEFAULT_QUANT_BITS
    reserved_bits: int = 0

    def __post_init__(self) -> None:
        if not 2 <= self.bits <= 32:
            raise ConfigError(f"quantizer bits must be in [2, 32], got {self.bits}")
        if not 0 <= self.reserved_bits < self.bits - 1:
            raise ConfigError(
                f"reserved_bits must be in [0, bits-1), got {self.reserved_bits}"
            )

    @property
    def capacity(self) -> int:
        """Maximum quantizable code magnitude (number of usable bins)."""
        return 1 << (self.bits - self.reserved_bits)

    @property
    def radius(self) -> int:
        """Centre offset ``r`` added to signed codes so they are non-negative."""
        return self.capacity >> 1


def _positive_finite(value) -> bool:
    """``value > 0`` and finite as a float; an integer beyond float range
    is not (``math.isfinite`` would raise ``OverflowError`` on it)."""
    try:
        return value > 0 and math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class ErrorBound:
    """A user-set error bound plus its resolution against a dataset.

    ``value`` is the raw user number (e.g. ``1e-3``); ``absolute`` is the
    resolved absolute bound actually enforced on each data point.  When
    ``base2`` is set the absolute bound has been tightened to a power of
    two and ``exponent`` holds ``log2(absolute)``.
    """

    mode: ErrorBoundMode
    value: float
    absolute: float
    base2: bool = False
    exponent: int | None = None

    def __post_init__(self) -> None:
        if not _positive_finite(self.value):
            raise ConfigError(f"error bound must be positive finite, got {self.value}")
        if not _positive_finite(self.absolute):
            raise ConfigError(
                f"resolved absolute bound must be positive finite, got {self.absolute}"
            )
        if self.base2:
            if self.exponent is None:
                raise ConfigError("base2 bound requires an exponent")
            if self.absolute != math.ldexp(1.0, self.exponent):
                raise ConfigError(
                    f"base2 bound {self.absolute} is not 2**{self.exponent}"
                )


def resolve_error_bound(
    data: np.ndarray,
    value: float,
    mode: ErrorBoundMode | str = ErrorBoundMode.VR_REL,
    *,
    base2: bool = False,
) -> ErrorBound:
    """Resolve a user-set bound into an absolute per-point bound.

    For ``VR_REL`` the bound is ``value * (max(data) - min(data))``; a field
    that is exactly constant resolves against a range of 1.0 so the bound
    stays positive (any positive bound compresses a constant field exactly
    anyway).  With ``base2=True`` the resolved bound is tightened to the
    nearest smaller-or-equal power of two, matching waveSZ's exponent-only
    arithmetic (e.g. VR-REL 1e-3 on a unit-range field -> 2**-10).
    """
    if isinstance(mode, str):
        try:
            mode = ErrorBoundMode(mode)
        except ValueError as exc:
            raise ConfigError(f"unknown error bound mode: {mode!r}") from exc
    if not _positive_finite(value):
        raise ConfigError(f"error bound must be positive finite, got {value}")

    if mode is ErrorBoundMode.ABS:
        absolute = float(value)
    elif mode is ErrorBoundMode.VR_REL:
        lo = float(np.min(data))
        hi = float(np.max(data))
        vrange = hi - lo
        if not math.isfinite(vrange):
            raise ConfigError("data contains non-finite values; cannot resolve VR_REL")
        absolute = value * (vrange if vrange > 0 else 1.0)
    elif mode is ErrorBoundMode.PW_REL:
        # After the log2 transform, |log2 d - log2 d'| <= log2(1+eb) bounds
        # the relative error by eb; a small margin absorbs the dtype
        # rounding of the transformed values (repro.sz.preprocess).
        if not value < 1:
            raise ConfigError(f"PW_REL bound must be < 1, got {value}")
        absolute = math.log2(1.0 + float(value)) - 2.0**-16
        if absolute <= 0:
            raise ConfigError(f"PW_REL bound {value} too tight for float32")
    else:  # pragma: no cover - enum is closed
        raise ConfigError(f"unhandled mode {mode}")

    if not base2:
        return ErrorBound(mode=mode, value=float(value), absolute=absolute)

    exponent = math.floor(math.log2(absolute))
    tightened = math.ldexp(1.0, exponent)
    # Guard against floor/ldexp landing above the target due to rounding.
    if tightened > absolute:
        exponent -= 1
        tightened = math.ldexp(1.0, exponent)
    return ErrorBound(
        mode=mode,
        value=float(value),
        absolute=tightened,
        base2=True,
        exponent=exponent,
    )
