"""Job model for the batch-compression service.

A :class:`CompressionJob` is the immutable, *picklable* description of one
unit of work — everything a worker process needs to run it.  The mutable
lifecycle (state, attempts, timings, result/error) lives in the
:class:`JobHandle` the scheduler hands back at submission, so jobs can
cross the process boundary while their bookkeeping stays in the parent.
"""

from __future__ import annotations

import enum
import itertools
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..codec.registry import REGISTRY
from ..errors import ConfigError
from ..streams import check_field
from ..tiling import check_tileable
from ..types import CompressionStats

__all__ = [
    "JobState",
    "CompressionJob",
    "JobResult",
    "JobHandle",
    "make_job",
]

_JOB_SEQ = itertools.count(1)


class JobState(enum.Enum):
    """Lifecycle of a job inside the scheduler.

    ``PENDING`` → ``QUEUED`` → ``RUNNING`` → one of the terminal states
    ``DONE`` / ``FAILED`` / ``EXPIRED``; ``REJECTED`` is terminal straight
    from submission (queue-full backpressure).
    """

    PENDING = "pending"
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    EXPIRED = "expired"
    REJECTED = "rejected"

    @property
    def terminal(self) -> bool:
        return self in (
            JobState.DONE, JobState.FAILED, JobState.EXPIRED, JobState.REJECTED
        )


@dataclass(frozen=True)
class CompressionJob:
    """One unit of service work, self-contained and picklable.

    ``op`` is ``"compress"`` (``data`` set) or ``"decompress"`` (``payload``
    set).  ``codec`` may be any registry name — canonical, alias or profile
    (profiles like ``"wavesz-g"`` matter: they configure the factory) —
    and is validated at construction, with ``data`` held to the codec's
    field contract.  ``priority`` orders the queue (higher first, FIFO
    within a level); ``deadline_s`` is a TTL in seconds from submission
    after which the scheduler refuses to start the job.

    ``n_tiles > 1`` asks for a tiled compression through the shared
    :func:`repro.parallel.plan_bands` plan (``tiled[...]`` payload,
    decoded transparently by ``decompress_auto``).  For data-parallel
    codecs the scheduler fans the bands of *one* job across the worker
    pool; other codecs tile serially inside a single worker — the
    payload is byte-identical either way.
    """

    job_id: str
    codec: str
    op: str = "compress"
    data: np.ndarray | None = None
    payload: bytes | None = None
    eb: float = 1e-3
    mode: str = "vr_rel"
    priority: int = 0
    deadline_s: float | None = None
    n_tiles: int = 1

    def __post_init__(self) -> None:
        if self.op not in ("compress", "decompress"):
            raise ConfigError(f"unknown job op {self.op!r}")
        if self.op == "compress":
            entry = REGISTRY.entry(self.codec)  # unknown names raise here
            if not isinstance(self.data, np.ndarray):
                raise ConfigError("compress jobs need a numpy `data` array")
            check_field(self.data, entry.name, entry.dims)
            if not (self.eb > 0):
                raise ConfigError(f"error bound must be positive, got {self.eb}")
        else:
            if not isinstance(self.payload, (bytes, bytearray)):
                raise ConfigError("decompress jobs need a bytes `payload`")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )
        if self.n_tiles < 1:
            raise ConfigError(f"n_tiles must be >= 1, got {self.n_tiles}")
        if self.n_tiles > 1:
            if self.op != "compress":
                raise ConfigError(
                    "n_tiles applies to compress jobs only (tiled payloads "
                    "decompress transparently through decompress_auto)"
                )
            assert self.data is not None
            check_tileable(self.data.shape)

    @property
    def metrics_key(self) -> str:
        """The per-codec label metrics are keyed by.

        The *requested* name, so profiles (``"wavesz-g"``) stay visible as
        their own series; decompress jobs share one ``"decompress"`` key
        because dispatch happens inside the worker.
        """
        return self.codec if self.op == "compress" else "decompress"

    @property
    def input_bytes(self) -> int:
        if self.op == "compress":
            assert self.data is not None
            return int(self.data.size * self.data.dtype.itemsize)
        assert self.payload is not None
        return len(self.payload)

    @property
    def batch_eligible(self) -> bool:
        """Whether this job may ride a coalesced worker dispatch.

        Multi-tile jobs are excluded: their bands are already an
        intra-job parallel axis, and batching would serialize them
        behind unrelated small jobs.
        """
        return self.n_tiles == 1


def make_job(
    codec: str,
    data: np.ndarray | None = None,
    *,
    payload: bytes | None = None,
    op: str = "compress",
    eb: float = 1e-3,
    mode: str = "vr_rel",
    priority: int = 0,
    deadline_s: float | None = None,
    n_tiles: int = 1,
    job_id: str | None = None,
) -> CompressionJob:
    """Build a validated job with an auto-assigned id."""
    return CompressionJob(
        job_id=job_id if job_id is not None else f"job-{next(_JOB_SEQ)}",
        codec=codec,
        op=op,
        data=None if data is None else np.ascontiguousarray(data),
        payload=payload,
        eb=eb,
        mode=mode,
        priority=priority,
        deadline_s=deadline_s,
        n_tiles=n_tiles,
    )


@dataclass(frozen=True)
class JobResult:
    """Terminal success record for one job.

    ``output`` is the compressed payload bytes (compress) or the restored
    array (decompress); ``stats`` is present for compress jobs only.
    ``queued_s`` / ``run_s`` split the end-to-end ``total_s`` latency into
    time spent waiting and time spent in a worker (the last attempt).
    """

    job_id: str
    codec: str
    op: str
    output: Any
    stats: CompressionStats | None
    attempts: int
    queued_s: float
    run_s: float
    total_s: float


class JobHandle:
    """Mutable tracking for one submitted job (parent process only)."""

    def __init__(self, job: CompressionJob) -> None:
        self.job = job
        self.state = JobState.PENDING
        self.attempts = 0
        self.error: BaseException | None = None
        self.submitted_at = time.monotonic()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._done: Any = None  # asyncio.Event, bound lazily by the scheduler
        self.result: JobResult | None = None

    @property
    def expired(self) -> bool:
        d = self.job.deadline_s
        return d is not None and (time.monotonic() - self.submitted_at) > d

    def finish(
        self, state: JobState, *,
        result: JobResult | None = None,
        error: BaseException | None = None,
    ) -> None:
        self.state = state
        self.result = result
        self.error = error
        self.finished_at = time.monotonic()
        if self._done is not None:
            self._done.set()
