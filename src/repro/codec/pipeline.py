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
from functools import cached_property
from typing import Any, Collection, Iterable, Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from ..config import ErrorBound, ErrorBoundMode, QuantizerConfig
from ..errors import ConfigError, ContainerError, ReproError, ShapeError, decode_guard, raise_first
from ..io.container import Container
from ..perf.stages import active_recorder
from ..streams import FIELD_DIMS, build_stats, check_field
from ..types import CompressedField
from ..variants import Feature
from .spec import PipelineSpec, StageSpec

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

    def take(self, key: str) -> Any:
        """:meth:`require` an artifact only the calling stage reads, and
        let it go: a batch decode holds every context at once."""
        value = self.require(key)
        del self.artifacts[key]
        return value


@runtime_checkable
class Stage(Protocol):
    """One functionality module of the SZ dataflow (Table 2).

    ``name`` identifies the stage in the variant's
    :class:`~repro.codec.spec.PipelineSpec`.  ``forward`` transforms the
    context toward the wire format; ``inverse`` undoes it.  A stage whose
    work is inherently one-directional (e.g. emitting side-channel
    sections read back by an earlier stage's inverse) implements the
    other direction as a no-op.  A stage whose algorithm needs a field
    dimensionality also declares ``dims``.  A stage that decodes several
    payloads better together than one at a time (the entropy decode)
    also defines ``inverse_many(ctxs)``, which a batch runs in place of
    ``inverse`` per context.
    """

    name: str

    def forward(self, ctx: PipelineContext) -> None: ...

    def inverse(self, ctx: PipelineContext) -> None: ...


class StagePipeline:
    """Runs a stage list forward (compress) or reversed (decompress)."""

    def __init__(self, variant: str, stages: Sequence[Stage]) -> None:
        self.variant = variant
        self.stages = tuple(stages)

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.stages)

    def _run(
        self, stages: Iterable[Stage], direction: str, ctxs: list[PipelineContext]
    ) -> None:
        """The one stage loop, over one or more contexts: each stage's
        ``direction`` method per context — or, when the stage defines
        ``<direction>_many``, that once for all of them — timed under the
        stage's name when a recorder is installed."""
        recorder = active_recorder()
        for stage in stages:
            if recorder is None:  # the hot path: no context manager per stage
                _step(stage, direction, ctxs)
            else:
                with recorder.stage(stage.name):
                    _step(stage, direction, ctxs)

    def run_forward(self, ctx: PipelineContext) -> PipelineContext:
        ctx.container = Container(header={"variant": self.variant})
        self._run(self.stages, "forward", [ctx])
        return ctx

    def run_inverse_many(
        self, payloads: list[bytes | Container]
    ) -> list[PipelineContext]:
        """One context per payload, every stage inverted for all of them."""
        ctxs = []
        for payload in payloads:
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
            ctxs.append(PipelineContext(container=container))
        self._run(reversed(self.stages), "inverse", ctxs)
        return ctxs


def _step(stage: Stage, direction: str, ctxs: list[PipelineContext]) -> None:
    many = getattr(stage, f"{direction}_many", None)
    if many is not None:
        many(ctxs)
        return
    step = getattr(stage, direction)
    for ctx in ctxs:
        step(ctx)


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

    A concrete compressor is declared once: ``name`` (the canonical wire
    variant name), :meth:`build_stages` (the stage order) and
    ``realizes`` (which Table 2 modules those stages stand for).
    Everything else — the :class:`~repro.codec.spec.PipelineSpec`,
    running the stages, stats assembly, the decode guard, the variant
    check — is derived or shared here.
    """

    name: str
    #: Stage name -> the Table 2 functionality modules that stage
    #: realizes; stages that realize none are left out.
    realizes: Mapping[str, Collection[Feature]] = {}
    #: Required Table 2 features the software reproduction deliberately
    #: does not realize / features it provides beyond its Table 2 row.
    unmodeled: Collection[Feature] = ()
    extra: Collection[Feature] = ()

    def build_stages(self) -> Sequence[Stage]:
        raise NotImplementedError

    @cached_property
    def _pipeline(self) -> StagePipeline:
        # Stages keep no per-call state and compressors are frozen, so
        # one pipeline serves every call on the instance, from any thread.
        return StagePipeline(self.name, self.build_stages())

    @cached_property
    def modes(self) -> tuple[str, ...]:
        """The error-bound modes this codec honours, read off its stages:
        a pointwise-relative bound needs the log transform."""
        modes = ("abs", "vr_rel")
        if "pw_rel_log" in self._pipeline.stage_names:
            modes += ("pw_rel",)
        return modes

    @cached_property
    def dims(self) -> tuple[int, ...]:
        """The field dimensionalities every stage's ``dims`` admits
        (:data:`~repro.streams.FIELD_DIMS` when no stage declares any)."""
        dims = set(FIELD_DIMS)
        for stage in self._pipeline.stages:
            dims &= set(getattr(stage, "dims", FIELD_DIMS))
        return tuple(sorted(dims))

    def pipeline_spec(self, table2: str | None = None) -> PipelineSpec:
        """The declarative spec of this instance: its built stage names,
        in order, zipped with ``realizes``.  A ``realizes`` key naming a
        stage the pipeline does not build is drift and raises."""
        names = self._pipeline.stage_names
        unknown = sorted(set(self.realizes) - set(names))
        if unknown:
            raise ConfigError(
                f"{self.name} realizes names stages {unknown} that "
                f"build_stages() does not build: {list(names)}"
            )
        return PipelineSpec(
            variant=self.name,
            table2=table2,
            stages=tuple(
                StageSpec(n, frozenset(self.realizes.get(n, ()))) for n in names
            ),
            unmodeled=frozenset(self.unmodeled),
            extra=frozenset(self.extra),
        )

    def compress(
        self,
        data: np.ndarray,
        eb: float = 1e-3,
        mode: ErrorBoundMode | str = ErrorBoundMode.VR_REL,
    ) -> CompressedField:
        """Compress a field under the given error bound.

        A field outside :attr:`dims` or the dtype rule and a mode the
        stage list cannot honour are refused before any work (an unknown
        mode is left to bound resolution's ``ConfigError``).
        """
        check_field(data, self.name, self.dims)
        if getattr(mode, "value", mode) == "pw_rel" and "pw_rel" not in self.modes:
            raise ShapeError(
                f"{self.name} has no log-transform stage and cannot hold "
                f"a pw_rel bound; it supports {', '.join(self.modes)}"
            )
        data = np.ascontiguousarray(data)
        ctx = PipelineContext(data=data, eb=eb, mode=mode)
        ctx.work = data
        self._pipeline.run_forward(ctx)
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
        already parsed and verified :class:`Container`) — a batch of one."""
        return self.decompress_many([compressed])[0]

    def decompress_many(
        self, payloads: Sequence[CompressedField | bytes | Container]
    ) -> list[np.ndarray]:
        """Reconstruct several payloads as one batch.

        Equal to ``[self.decompress(p) for p in payloads]``, errors
        included: it raises what the first payload that fails raises
        alone (:meth:`decompress_outcomes`).
        """
        return raise_first(self.decompress_outcomes(payloads))

    def decompress_outcomes(
        self, payloads: Sequence[CompressedField | bytes | Container]
    ) -> list:
        """One entry per payload: its reconstruction, or the
        :class:`ReproError` it raises decoded alone.

        The payloads decode as one batch: a stage with an
        ``inverse_many`` (the entropy decode) runs once for all of them.
        A batch that raises is decoded again one payload at a time to
        find out which fail; a batch of one is not decoded twice.
        """
        raw = [p.payload if isinstance(p, CompressedField) else p for p in payloads]
        try:
            return self._reconstruct(raw)
        except ReproError as exc:
            if len(raw) == 1:
                return [exc]
        out: list = []
        for p in raw:
            try:
                out += self._reconstruct([p])
            except ReproError as exc:
                out.append(exc)
        return out

    def _reconstruct(self, payloads: list[bytes | Container]) -> list[np.ndarray]:
        with decode_guard(f"{self.name} payload"):
            outs = []
            for ctx in self._pipeline.run_inverse_many(payloads):
                if ctx.out is None:
                    raise ContainerError(
                        f"{self.name} pipeline produced no reconstruction"
                    )
                outs.append(ctx.out)
            return outs
