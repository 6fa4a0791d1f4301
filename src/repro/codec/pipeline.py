"""Stage protocol, pipeline context and the pipeline runner.

A compressor is a *sequence of stages*.  Each stage is a paired
``forward``/``inverse`` transform over a shared :class:`PipelineContext`:
``forward`` consumes the context the previous stages produced and adds
header keys / sections to the container being built; ``inverse`` undoes
its forward against a parsed container.  Decompression runs the stage
list in reverse, so a pipeline that compresses

    bound → predict → header → codes → values

decompresses ``values → codes → header → predict → bound`` — the
dependency symmetry every hand-rolled ``compress``/``decompress`` pair
used to maintain by convention is now structural.

Inverse stages that run *before* the header stage (in reverse order) read
what they need straight from the parsed header dict through the validated
:mod:`repro.streams` helpers; the header stage then populates the typed
context fields (``shape``, ``dtype``, ``bound``, ``quant``) every later
inverse stage uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol, Sequence, runtime_checkable

import numpy as np

from ..config import ErrorBound, ErrorBoundMode, QuantizerConfig
from ..errors import ContainerError, decode_guard
from ..io.container import Container
from ..perf.stages import active_recorder
from ..streams import build_stats
from ..types import CompressedField

__all__ = [
    "PipelineContext",
    "Stage",
    "StagePipeline",
    "Compressor",
    "PipelineCompressor",
]


@dataclass
class PipelineContext:
    """Mutable state threaded through a stage pipeline, both directions.

    Forward (compression) starts from ``data``/``eb``/``mode`` and an
    empty container; stages fill in the typed fields, add sections, and
    accumulate the size accounting.  Inverse (decompression) starts from
    a parsed container; stages rebuild the typed fields and finish with
    the reconstruction in ``out``.

    ``artifacts`` is the typed inter-stage side channel for everything
    variant-shaped (a :class:`~repro.sz.pqd.PQDResult`, a wavefront code
    stream, regression coefficient rows, ...): stages publish under a
    documented key and downstream stages fetch with :meth:`require`.
    """

    # forward inputs
    data: np.ndarray | None = None
    eb: float = 1e-3
    mode: ErrorBoundMode | str = ErrorBoundMode.VR_REL

    # the container being built (forward) or read (inverse)
    container: Container | None = None

    # typed fields shared by most stages
    bound: ErrorBound | None = None
    quant: QuantizerConfig | None = None
    shape: tuple[int, ...] | None = None
    dtype: np.dtype | None = None

    # working arrays
    work: np.ndarray | None = None  # the field view being predicted
    codes: np.ndarray | None = None  # quantization-code stream
    out: np.ndarray | None = None  # reconstruction (inverse direction)

    # free-form inter-stage artifacts
    artifacts: dict[str, Any] = field(default_factory=dict)

    # size accounting (forward direction, consumed by build_stats)
    encoded_code_bytes: int = 0
    outlier_bytes: int = 0
    border_bytes: int = 0
    extra_bytes: int = 0
    n_unpredictable: int = 0
    n_border: int = 0

    # free-form result metadata surfaced on CompressedField.meta
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def header(self) -> dict:
        """The container header dict (raises if no container is open)."""
        if self.container is None:
            raise ContainerError("pipeline context has no open container")
        return self.container.header

    def require(self, key: str) -> Any:
        """Fetch an artifact a previous stage must have published."""
        try:
            return self.artifacts[key]
        except KeyError:
            raise ContainerError(
                f"pipeline stage ordering bug: artifact {key!r} missing"
            ) from None


@runtime_checkable
class Stage(Protocol):
    """One functionality module of the SZ dataflow (Table 2).

    ``name`` identifies the stage in the variant's
    :class:`~repro.codec.spec.PipelineSpec`.  ``forward`` transforms the
    context toward the wire format; ``inverse`` undoes it.  A stage whose
    work is inherently one-directional (e.g. emitting side-channel
    sections read back by an earlier stage's inverse) implements the
    other direction as a no-op.
    """

    name: str

    def forward(self, ctx: PipelineContext) -> None: ...

    def inverse(self, ctx: PipelineContext) -> None: ...


class StagePipeline:
    """Runs a stage list forward (compress) or reversed (decompress)."""

    def __init__(self, variant: str, stages: Sequence[Stage]) -> None:
        self.variant = variant
        self.stages = tuple(stages)
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ContainerError(
                f"{variant} pipeline has duplicate stage names: {names}"
            )

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.stages)

    def run_forward(self, ctx: PipelineContext) -> PipelineContext:
        ctx.container = Container(header={"variant": self.variant})
        recorder = active_recorder()
        if recorder is None:
            for stage in self.stages:
                stage.forward(ctx)
        else:
            for stage in self.stages:
                with recorder.stage(stage.name):
                    stage.forward(ctx)
        return ctx

    def run_inverse(self, payload: bytes | Container) -> PipelineContext:
        container = (
            payload
            if isinstance(payload, Container)
            else Container.from_bytes(payload)
        )
        h = container.header
        if h.get("variant") != self.variant:
            raise ContainerError(
                f"payload was produced by {h.get('variant')!r}, not {self.variant}"
            )
        ctx = PipelineContext(container=container)
        recorder = active_recorder()
        if recorder is None:
            for stage in reversed(self.stages):
                stage.inverse(ctx)
        else:
            for stage in reversed(self.stages):
                with recorder.stage(stage.name):
                    stage.inverse(ctx)
        return ctx


class Compressor(Protocol):
    """The compressor contract every consumer codes against (tiling,
    the array store, the selector, measurement, rate-distortion sweeps):
    anything with a wire ``name`` and a ``compress`` / ``decompress``
    pair — a :class:`PipelineCompressor` or not."""

    name: str

    def compress(self, data: np.ndarray, eb: float, mode: Any) -> CompressedField: ...

    def decompress(self, compressed: Any) -> np.ndarray: ...


class PipelineCompressor:
    """Base class driving compress/decompress through a stage pipeline.

    Concrete compressors provide ``name`` (the canonical wire variant
    name), ``spec`` (their :class:`~repro.codec.spec.PipelineSpec`) and
    :meth:`build_stages`; everything else — running the stages, stats
    assembly, the decode guard, the variant check — is shared here.
    """

    name: str

    def build_stages(self) -> Sequence[Stage]:
        raise NotImplementedError

    def _pipeline(self) -> StagePipeline:
        pipeline = StagePipeline(self.name, self.build_stages())
        spec = getattr(self, "spec", None)
        if spec is not None and pipeline.stage_names != spec.stage_names:
            raise ContainerError(
                f"{self.name} stages {pipeline.stage_names} do not match "
                f"spec {spec.stage_names}"
            )
        return pipeline

    def compress(
        self,
        data: np.ndarray,
        eb: float = 1e-3,
        mode: ErrorBoundMode | str = ErrorBoundMode.VR_REL,
    ) -> CompressedField:
        """Compress a field under the given error bound."""
        data = np.ascontiguousarray(data)
        ctx = PipelineContext(data=data, eb=eb, mode=mode)
        ctx.work = data
        self._pipeline().run_forward(ctx)
        stats = build_stats(
            data=data,
            encoded_code_bytes=ctx.encoded_code_bytes,
            outlier_bytes=ctx.outlier_bytes,
            border_bytes=ctx.border_bytes,
            n_unpredictable=ctx.n_unpredictable,
            n_border=ctx.n_border,
            extra_bytes=ctx.extra_bytes,
        )
        assert ctx.container is not None
        return CompressedField(
            variant=self.name,
            shape=tuple(data.shape),
            dtype=str(data.dtype),
            bound=ctx.bound,
            quant=ctx.quant,
            payload=ctx.container.to_bytes(),
            stats=stats,
            meta=dict(ctx.meta),
        )

    def decompress(
        self, compressed: CompressedField | bytes | Container
    ) -> np.ndarray:
        """Reconstruct the field from a compressed payload (or from its
        already parsed and verified :class:`Container`)."""
        payload = (
            compressed.payload
            if isinstance(compressed, CompressedField)
            else compressed
        )
        with decode_guard(f"{self.name} payload"):
            ctx = self._pipeline().run_inverse(payload)
            if ctx.out is None:
                raise ContainerError(
                    f"{self.name} pipeline produced no reconstruction"
                )
            return ctx.out
