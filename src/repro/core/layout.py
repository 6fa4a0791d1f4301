"""Head/body/tail loop partition and the Figure 6 timing algebra.

After the wavefront transform a ``(d0, d1)`` field (``d1 >= d0``) has
``d0 + d1 - 1`` columns.  The pipeline depth is ``Λ = d0 - 1`` (the first
row is pure dependency — paper Listing 1 asserts ``PIPELINE_DEPTH ==
d0-1``).  Columns split into three groups:

* **head** — growing columns (lengths 1..Λ); imperfect loops with stalls,
* **body** — full-length columns (length Λ); the "perfect" loop where the
  iterator's column-switch time Δ maps exactly onto the Λ points and no
  stall occurs,
* **tail** — shrinking columns; imperfect again.

For a body point at row ``r``, column ``c`` (both 0-based here; the paper
uses 1-based rows), the PQD start cycle is ``c*Λ + r`` and the end cycle
``(c+1)*Λ + r - 1`` — one full Δ = Λ after the start.  The next column's
same-row point starts exactly one cycle after that end: pII = 1 with zero
stalls, which :mod:`repro.fpga.timing` verifies by event-driven simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ModelError

__all__ = ["LoopPartition", "start_cycle", "end_cycle"]


def start_cycle(r: int, c: int, lam: int) -> int:
    """Global start cycle of PQD for body point (row r, column c), 0-based."""
    return c * lam + r


def end_cycle(r: int, c: int, lam: int) -> int:
    """Global end cycle of PQD for body point (row r, column c), 0-based."""
    return (c + 1) * lam + r - 1


@dataclass(frozen=True)
class LoopPartition:
    """The head/body/tail split of the wavefront columns of a 2D field.

    ``d0`` is the shorter (vertical / pipeline) dimension, ``d1`` the
    iteration dimension; ``lam`` is the pipeline depth Λ = d0 - 1.
    """

    d0: int
    d1: int

    def __post_init__(self) -> None:
        if self.d0 < 2 or self.d1 < 2:
            raise ModelError(f"partition needs dims >= 2, got {self.d0}x{self.d1}")
        if self.d1 < self.d0:
            raise ModelError(
                "wavefront partition expects d1 >= d0 (iterate along the longer dim); "
                f"got {self.d0}x{self.d1}"
            )

    @property
    def lam(self) -> int:
        """Pipeline depth Λ (points per full column)."""
        return self.d0 - 1

    @property
    def n_cols(self) -> int:
        return self.d0 + self.d1 - 1

    def column_length(self, t: int) -> int:
        """Number of points in wavefront column ``t`` (including border row)."""
        if not 0 <= t < self.n_cols:
            raise ModelError(f"column {t} out of range [0, {self.n_cols})")
        return min(t, self.d0 - 1, self.d1 - 1, self.d0 + self.d1 - 2 - t) + 1

    def interior_column_length(self, t: int) -> int:
        """Points per column excluding the first-row/column border points.

        These are the PQD iterations the hardware actually runs (Listing 1
        starts at h = 1 and skips the dependency row).
        """
        full = self.column_length(t)
        # Border points on column t: the point with i == 0 exists iff
        # t <= d1-1; the point with j == 0 exists iff t <= d0-1 (and t>0).
        border = 0
        if t <= self.d1 - 1:
            border += 1
        if 0 < t <= self.d0 - 1:
            border += 1
        if t == 0:
            border = 1
        return max(full - border, 0)

    @property
    def head_columns(self) -> range:
        """Growing columns: lengths 1..Λ (imperfect loop)."""
        return range(0, self.d0 - 1)

    @property
    def body_columns(self) -> range:
        """Full columns of length d0 (the perfect, stall-free loop)."""
        return range(self.d0 - 1, self.d1)

    @property
    def tail_columns(self) -> range:
        """Shrinking columns (imperfect loop)."""
        return range(self.d1, self.n_cols)

    def group_of(self, t: int) -> str:
        if t in self.head_columns:
            return "head"
        if t in self.body_columns:
            return "body"
        return "tail"

    def spans(self) -> dict[str, int]:
        """Column counts per group (Figure 6 annotations)."""
        return {
            "head": len(self.head_columns),
            "body": len(self.body_columns),
            "tail": len(self.tail_columns),
        }

    def interior_points(self) -> int:
        return (self.d0 - 1) * (self.d1 - 1)
