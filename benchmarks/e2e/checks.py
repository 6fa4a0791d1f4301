"""The correctness checker: what makes an operation count as failed.

An operation fails on a typed error or timeout (caught where it is
timed), a violated error bound, a service payload that is not byte-equal
to the library's payload for the same request, or a store read that is
not bit-equal to the library's decode of the same field.  Both store
workloads compare against that one library decode, so a sharded read is
bit-equal to the local read of the same name by transitivity.
"""

from __future__ import annotations

import numpy as np

from repro import verify_error_bound

from timing import BoundViolation, CheckFailure


def same_bytes(got: bytes, expect: bytes, what: str) -> None:
    if got != expect:
        raise CheckFailure(
            f"{what}: payload differs from the library's "
            f"({len(got)} vs {len(expect)} bytes)"
        )


def same_array(got: np.ndarray, expect: np.ndarray, what: str) -> None:
    if got.shape != expect.shape or got.dtype != expect.dtype:
        raise CheckFailure(
            f"{what}: got {got.dtype}{got.shape}, "
            f"expected {expect.dtype}{expect.shape}"
        )
    if got.tobytes() != expect.tobytes():
        raise CheckFailure(f"{what}: values are not bit-equal to the reference")


def within_bound(original: np.ndarray, decoded: np.ndarray,
                 eb_abs: float, what: str) -> None:
    if decoded.shape != original.shape:
        raise CheckFailure(f"{what}: decoded shape {decoded.shape}")
    if not verify_error_bound(original, decoded, eb_abs, raise_on_fail=False):
        raise BoundViolation(f"{what}: error bound {eb_abs:.3e} violated")
