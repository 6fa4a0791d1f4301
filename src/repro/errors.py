"""Exception hierarchy for the waveSZ reproduction.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single type at API boundaries.  Subtypes are split by subsystem so
tests can assert on the precise failure mode.

:func:`decode_guard` is the boundary enforcement for that promise on the
*decode* side: any stray ``ValueError``/``struct.error``/``IndexError`` that a
malformed payload manages to provoke out of NumPy or ``struct`` is converted
to :class:`ContainerError` so corrupted input can never crash a caller with a
non-``ReproError`` exception.
"""

from __future__ import annotations

import concurrent.futures
import struct
from contextlib import contextmanager


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigError(ReproError, ValueError):
    """Invalid compressor / model configuration (bad error bound, bins, mode)."""


class ShapeError(ReproError, ValueError):
    """Input array has an unsupported shape or dimensionality."""


class DTypeError(ReproError, TypeError):
    """Input array has an unsupported dtype (only float32/float64 fields)."""


class EncodingError(ReproError):
    """Entropy-coding failure (corrupt bitstream, unknown symbol)."""


class BitstreamError(EncodingError):
    """Low-level bit IO failure: truncated or misaligned stream."""


class HuffmanError(EncodingError):
    """Huffman table construction or decode failure."""


class RansError(EncodingError):
    """rANS table construction or stream encode/decode failure."""


class LosslessError(ReproError):
    """LZ77 / DEFLATE-substrate failure (corrupt container, bad backend)."""


class ContainerError(ReproError):
    """Compressed container is malformed (bad magic, truncated section)."""


class ChecksumError(ContainerError):
    """A stored checksum does not match the recomputed one (bit rot, tampering)."""


class FaultInjectionError(ReproError):
    """A fault spec cannot be applied to the given payload (bad offset, not a
    parseable container for a structural fault, or a no-op mutation)."""


class StoreError(ReproError):
    """Array-store failure (unknown dataset, bad name, malformed manifest,
    missing object) that is not a checksum/corruption problem — those keep
    raising :class:`ChecksumError` / :class:`ContainerError` so store reads
    and direct payload decodes classify damage identically."""


class ServiceError(ReproError):
    """Batch-compression service failure (scheduling, worker pool, protocol)."""


class QueueFullError(ServiceError):
    """The service's bounded job queue rejected a submission (backpressure).

    Raised instead of growing the queue without bound; callers either retry
    later, submit with ``block=True``, or shed load.
    """


class JobFailedError(ServiceError):
    """A job exhausted its retries (or hit a permanent fault) and failed."""


class TransportError(ServiceError):
    """The wire between client and server failed mid-request (connection
    reset, short frame, socket closed).  Always tagged with the op name and
    request id so a retry — idempotent by request id — can be correlated."""


class ServiceTimeoutError(TransportError):
    """A per-request deadline expired while waiting on the socket."""


class CircuitOpenError(ServiceError):
    """The client's circuit breaker is open: recent requests failed and the
    cooldown has not elapsed, so the call failed fast without touching the
    network."""


class WorkerHungError(ServiceError):
    """A worker exceeded the watchdog's hang timeout and was killed.

    Classified transient: the pool respawns workers, so the retry runs on a
    fresh process."""


class WorkerDiedError(ServiceError, concurrent.futures.BrokenExecutor):
    """A pool worker process died (OOM kill, SIGKILL, segfault) or was
    torn down with a job in flight; only that worker's job fails.

    A ``BrokenExecutor`` so the taxonomy classifies it transient: the
    slot refills with a fresh worker and the retry lands there."""


class SimulatedCrash(BaseException):
    """The chaos layer's process-death signal (crash-at-step-k).

    Deliberately *not* a :class:`ReproError` — and not even an
    ``Exception`` — so no ``except ReproError``/``except Exception``
    handler in the code under test can swallow it: a real ``kill -9``
    cannot be caught either.  Only the chaos harness catches it.
    """


class DeadlineExpiredError(ServiceError):
    """A job's deadline passed before a worker could start it."""


class ErrorBoundViolation(ReproError):
    """Decompressed data violates the user-set error bound.

    This is never expected in correct operation; it exists so verification
    helpers can signal a hard invariant break rather than return a bool.
    """


class ModelError(ReproError):
    """FPGA / CPU performance-model misuse (e.g. Λ <= 0, zero lanes)."""


class DatasetError(ReproError):
    """Unknown dataset / field name in the synthetic SDRB registry."""


#: Non-Repro exception types a malformed payload can provoke out of the
#: stdlib / NumPy while decoding.  ``MemoryError`` is deliberately absent:
#: header sanity caps keep allocations bounded, and a genuine OOM should
#: surface as itself.
_DECODE_LEAKS = (
    struct.error,
    ValueError,
    TypeError,
    KeyError,
    IndexError,
    OverflowError,
    UnicodeDecodeError,
)


def raise_first(outcomes: list) -> list:
    """A batch's results: ``outcomes`` itself when no entry is a
    :class:`ReproError`, else the first such entry raised — what the
    per-item loop the batch replaces would have raised."""
    for outcome in outcomes:
        if isinstance(outcome, ReproError):
            raise outcome
    return outcomes


@contextmanager
def decode_guard(what: str = "compressed payload"):
    """Convert stray stdlib/NumPy exceptions into :class:`ContainerError`.

    Wrap every payload-decode entry point with this so the public contract
    — *malformed input raises a ReproError subtype* — holds even for damage
    the explicit bounds checks did not anticipate.  ``ReproError`` subtypes
    pass through untouched.
    """
    try:
        yield
    except ReproError:
        raise
    except _DECODE_LEAKS as exc:
        raise ContainerError(
            f"malformed {what}: {type(exc).__name__}: {exc}"
        ) from exc
