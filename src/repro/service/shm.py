"""Zero-copy shared-memory field transport for the worker pool.

Moving a field to a process-pool worker by value costs three full-field
copies *before* any compression happens: the scheduler pickles the
``ndarray`` into the worker's pipe, the OS copies it through a
socketpair, and the worker unpickles it again.  This module replaces the
value channel with a name channel for inputs; outputs come back by value
on both transports (a segment would move them no fewer times).

:class:`ShmArena`
    A registry of refcounted ``multiprocessing.shared_memory`` segments
    owned by the scheduler process — the only code that creates, leases
    or unlinks one.  Segments are leased per job, released (and pooled
    or unlinked) when the job settles, and unconditionally unlinked at
    :meth:`ShmArena.close` and interpreter exit.  Workers only attach,
    so a worker killed mid-lease cannot strand ``/dev/shm``.  A segment
    name carries its owner's pid, so what a killed owner left behind is
    unlinked by the next process that opens an arena.

:class:`FieldRef`
    The picklable descriptor that crosses the pool instead of the array:
    segment name, dtype, shape, offset, byte length.  A worker attaches
    the segment by name and maps a read-only ``ndarray`` view over it —
    no bytes move.  Offsets let the contiguous tile bands of one field
    share the segment the field already lives in.

:class:`ShmTransport` / :class:`PickleTransport`
    The scheduler-facing seam: one encoder, ``encode_job(*jobs)``, turns
    the jobs of one dispatch — a lone job, a micro-batch, one tile band —
    into a picklable call of :func:`run_jobs`.  ``shm`` places each
    job's bulk input by one rule (memory the arena already holds → an
    offset ref into it; at least ``min_bytes`` → one leased segment;
    else by value); ``pickle`` passes jobs through unchanged — the
    transparent fallback for ``thread``/``inline`` pools (same address
    space, a copy channel would only add work), for platforms without
    usable shared memory, and the reference the parity matrix compares
    against.

:func:`run_jobs`
    The one worker entry, at module level so process pools can pickle
    it.  It resolves refs and runs :func:`~repro.service.workers.
    run_job` per item on both transports and returns the outputs by
    value, so results are byte-identical across transports by
    construction.
"""

from __future__ import annotations

import atexit
import os
import re
import secrets
import threading
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..errors import ServiceError
from ..lru import BoundedLRU
from .jobs import CompressionJob
from .workers import run_job

__all__ = [
    "SHM_MIN_BYTES",
    "FieldRef",
    "ShmArena",
    "PickleTransport",
    "ShmTransport",
    "run_jobs",
    "resolve_transport",
]

#: Fields smaller than this ride the pickle channel even under the shm
#: transport: below ~64 KiB the segment machinery (shm_open + mmap +
#: attach in the worker) costs more than pickling the bytes.  Micro-
#: batching is the tool for small jobs, not shared memory.
SHM_MIN_BYTES = 64 * 1024

#: Largest segment the arena keeps in its free pool for reuse, and the
#: pool's total byte budget.  Reusing a warm segment turns dispatch into
#: a single memcpy; the cap keeps idle services from pinning memory.
_POOL_MAX_SEGMENT = 64 * 1024 * 1024
_POOL_MAX_BYTES = 256 * 1024 * 1024

#: Worker-side attachment cache (name → SharedMemory).  Pooled segments
#: keep their names across jobs, so workers re-map the same segment once.
_ATTACH_CACHE_SLOTS = 16


#: Where Linux lists POSIX shared memory, and the name of a segment an
#: arena made: ``wsz<owner pid>_<arena token>-<seq>``.
_SHM_DIR = "/dev/shm"
_OWNED = re.compile(r"wsz(\d+)_[0-9a-f]+-\d+")


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # exists, owned by someone else
    return True


def _reclaim_dead_owners() -> None:
    """Unlink every arena segment whose owner process is gone — what a
    SIGKILLed server leaves in ``/dev/shm``.  A live owner's segments
    are never touched.  Nothing to do where shared memory is not listed
    under ``/dev/shm``."""
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return
    for name in names:
        m = _OWNED.fullmatch(name)
        if m is not None and not _alive(int(m.group(1))):
            try:
                os.unlink(os.path.join(_SHM_DIR, name))
            except OSError:
                pass  # another process reclaimed it first


def _size_class(nbytes: int) -> int:
    """Pool bucket: next power of two, floored at one page."""
    size = 4096
    while size < nbytes:
        size *= 2
    return size


@dataclass(frozen=True)
class FieldRef:
    """A picklable pointer into a shared-memory segment.

    ``kind`` is ``"array"`` (a dtype/shape-typed field view) or
    ``"bytes"`` (an opaque payload, e.g. a compressed container).
    """

    segment: str
    kind: str
    nbytes: int
    offset: int = 0
    dtype: str = ""
    shape: tuple[int, ...] = ()


def _address(data: np.ndarray) -> int:
    return data.__array_interface__["data"][0]


class _Segment:
    """One tracked segment: the mapping plus its lease count."""

    __slots__ = ("shm", "size", "refs", "base")

    def __init__(self, shm: Any, size: int) -> None:
        self.shm = shm
        self.size = size
        self.refs = 0
        #: Address the mapping starts at: what :meth:`ShmArena.ref_of`
        #: measures an array's own address against.
        self.base = _address(np.frombuffer(shm.buf, dtype=np.uint8))


class ShmArena:
    """Refcounted shared-memory segments with a crash-safe lifecycle.

    Thread-safe: the asyncio scheduler allocates from the event loop
    while the TCP server's body reader may fill segments from the same
    loop and tests poke it from other threads.
    """

    _available: bool | None = None
    #: The process that has swept dead owners' segments already.
    _reclaimed_by: int | None = None

    def __init__(self, *, metrics: Any = None) -> None:
        # Unique per-arena namespace: segments are named
        # ``wsz<pid>_<token>-<seq>``, so leaked segments are findable by
        # prefix, their owner is known, and names are never reused
        # within an arena.
        self.prefix = f"wsz{os.getpid()}_{secrets.token_hex(4)}"
        if ShmArena._reclaimed_by != os.getpid():
            ShmArena._reclaimed_by = os.getpid()
            _reclaim_dead_owners()
        self.metrics = metrics
        self._lock = threading.Lock()
        self._segments: dict[str, _Segment] = {}
        self._pool: dict[int, list[str]] = {}
        self._pool_bytes = 0
        self._seq = 0
        self.leaks_reclaimed = 0
        atexit.register(self.close)

    # -- platform ---------------------------------------------------------

    @classmethod
    def available(cls) -> bool:
        """Whether this platform can create shared-memory segments."""
        if cls._available is None:
            probe = cls()
            try:
                probe.release(probe.allocate(1))
                cls._available = True
            except (ImportError, OSError, ValueError):
                cls._available = False
            finally:
                probe.close()
                atexit.unregister(probe.close)
        return cls._available

    # -- accounting -------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        """Total bytes mapped by this arena (leased + pooled)."""
        with self._lock:
            return sum(s.size for s in self._segments.values())

    @property
    def leased_segments(self) -> int:
        with self._lock:
            return sum(1 for s in self._segments.values() if s.refs > 0)

    def _gauge(self) -> None:
        if self.metrics is not None:
            self.metrics.set_gauge("shm.resident_bytes", self.resident_bytes)

    # -- allocation -------------------------------------------------------

    def _create_locked(self, size: int) -> _Segment:
        from multiprocessing import shared_memory

        self._seq += 1
        name = f"{self.prefix}-{self._seq}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        seg = _Segment(shm, size)
        self._segments[shm.name] = seg
        return seg

    def allocate(self, nbytes: int) -> str:
        """Lease a segment of at least ``nbytes``; returns its name.

        Reuses a pooled segment of the same size class when one is free
        (dispatch then costs one memcpy, no syscalls); otherwise creates
        a fresh one.  The caller owns one lease and must
        :meth:`release` it exactly once.
        """
        if nbytes <= 0:
            raise ServiceError(f"cannot allocate {nbytes} shared bytes")
        size = _size_class(nbytes)
        with self._lock:
            free = self._pool.get(size)
            if free:
                name = free.pop()
                self._pool_bytes -= size
                seg = self._segments[name]
            else:
                seg = self._create_locked(size)
                name = seg.shm.name
            seg.refs = 1
        self._gauge()
        return name

    def buffer(self, name: str, nbytes: int, offset: int = 0) -> memoryview:
        """A writable view over ``nbytes`` of a leased segment."""
        with self._lock:
            seg = self._segments[name]
        return seg.shm.buf[offset:offset + nbytes]

    def lease(self, name: str, n: int = 1) -> None:
        """Add ``n`` leases to a live segment."""
        with self._lock:
            self._segments[name].refs += n

    def release(self, name: str, n: int = 1) -> None:
        """Drop ``n`` leases; the last one pools or unlinks the segment."""
        unlink: _Segment | None = None
        with self._lock:
            seg = self._segments.get(name)
            if seg is None:
                return  # already reclaimed (close() raced a late release)
            seg.refs -= n
            if seg.refs > 0:
                return
            if (
                seg.size <= _POOL_MAX_SEGMENT
                and self._pool_bytes + seg.size <= _POOL_MAX_BYTES
            ):
                self._pool.setdefault(seg.size, []).append(name)
                self._pool_bytes += seg.size
            else:
                del self._segments[name]
                unlink = seg
        if unlink is not None:
            self._unlink(unlink.shm)
        self._gauge()

    @staticmethod
    def _unlink(shm: Any) -> None:
        try:
            shm.close()
        except (OSError, BufferError):  # pragma: no cover - close races
            pass
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass

    # -- field helpers ----------------------------------------------------

    def put_array(self, data: np.ndarray) -> FieldRef:
        """Copy one field into a fresh lease and describe it."""
        data = np.ascontiguousarray(data)
        name = self.allocate(data.nbytes)
        dst = np.ndarray(data.shape, dtype=data.dtype,
                         buffer=self.buffer(name, data.nbytes))
        dst[...] = data
        return FieldRef(
            segment=name, kind="array", nbytes=data.nbytes,
            dtype=data.dtype.str, shape=tuple(data.shape),
        )

    def put_bytes(self, payload: bytes) -> FieldRef:
        """Copy an opaque payload into a fresh lease and describe it."""
        name = self.allocate(len(payload))
        self.buffer(name, len(payload))[:] = payload
        return FieldRef(segment=name, kind="bytes", nbytes=len(payload))

    def adopt_view(
        self, name: str, dtype: np.dtype, shape: tuple[int, ...],
        offset: int = 0,
    ) -> np.ndarray:
        """Map an ndarray over a leased segment.

        The zero-copy ingest path: the server streams a request body
        straight into a segment, maps a view, and hands that array to
        ``make_job``.  When the scheduler later encodes the job,
        :meth:`ref_of` finds the array's memory inside the segment and
        ships a :class:`FieldRef` instead of copying the field again.
        """
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        return np.ndarray(shape, dtype=dtype,
                          buffer=self.buffer(name, nbytes, offset))

    def ref_of(self, data: np.ndarray) -> FieldRef | None:
        """Where ``data`` lives in this arena, or ``None`` if it does not.

        Answers by address, so a whole adopted field and a contiguous
        row-slab of one (a tile band) both resolve — to the same segment
        at their own offsets.  Only leased segments count: a view into a
        released (pooled) segment is no longer the caller's memory.
        """
        if not data.flags.c_contiguous:
            return None
        addr = _address(data)
        with self._lock:
            for name, seg in self._segments.items():
                if (
                    seg.refs > 0
                    and seg.base <= addr
                    and addr + data.nbytes <= seg.base + seg.size
                ):
                    return FieldRef(
                        segment=name, kind="array", nbytes=data.nbytes,
                        offset=addr - seg.base, dtype=data.dtype.str,
                        shape=tuple(data.shape),
                    )
        return None

    # -- reclamation ------------------------------------------------------

    def close(self) -> None:
        """Unlink every segment, counting leases still held as leaks.

        Idempotent and re-entrant-safe; registered with ``atexit`` so an
        interpreter exit — orderly or not — cannot strand ``/dev/shm``.
        The arena remains usable after close (a fresh allocation simply
        creates a fresh segment), which keeps scheduler restart cheap.
        """
        with self._lock:
            segments = list(self._segments.values())
            leaked = sum(1 for s in segments if s.refs > 0)
            self._segments.clear()
            self._pool.clear()
            self._pool_bytes = 0
        for seg in segments:
            self._unlink(seg.shm)
        if leaked:
            self.leaks_reclaimed += leaked
            if self.metrics is not None:
                self.metrics.incr("shm.leaks_reclaimed", leaked)
        self._gauge()


# -- worker side ----------------------------------------------------------
#
# Everything below runs inside pool workers.  Attachments are cached by
# name: pooled segments keep their names across jobs, so a warm worker
# re-maps nothing.  Names are never reused by an arena, so a cached
# mapping can never alias a different segment.


def _close_mapping(name: str, shm: Any) -> None:
    try:
        shm.close()
    except (OSError, BufferError):  # pragma: no cover - view still live
        pass


_attachments = BoundedLRU(max_entries=_ATTACH_CACHE_SLOTS, on_evict=_close_mapping)


class _no_tracking:
    """Open a ``SharedMemory`` without resource-tracker registration.

    Before Python 3.13 every ``SharedMemory`` — attach included —
    registers with the ``multiprocessing`` resource tracker, whose job
    is to unlink "leaked" segments at process exit: exactly wrong for a
    worker touching a segment the *scheduler* owns (fork start method:
    the shared tracker would lose the parent's registration; spawn: the
    worker's private tracker would unlink a live segment at worker
    exit).  Suppressing the registration — rather than unregistering
    after the fact — keeps the tracker's bookkeeping balanced under
    both start methods.  Workers run one task at a time, so the brief
    monkeypatch is not racy in practice.
    """

    def __enter__(self) -> None:
        from multiprocessing import resource_tracker

        self._mod = resource_tracker
        self._orig = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None

    def __exit__(self, *exc: Any) -> None:
        self._mod.register = self._orig


def _open_untracked(name: str) -> Any:
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track= keyword
        with _no_tracking():
            return shared_memory.SharedMemory(name=name)


def _attach(name: str) -> Any:
    shm = _attachments.get(name)
    if shm is None:
        shm = _open_untracked(name)
        _attachments.put(name, shm)
    return shm


def _view(ref: FieldRef) -> np.ndarray:
    """A read-only ndarray over a :class:`FieldRef` (zero copies)."""
    shm = _attach(ref.segment)
    arr = np.ndarray(
        ref.shape, dtype=np.dtype(ref.dtype),
        buffer=shm.buf[ref.offset:ref.offset + ref.nbytes],
    )
    arr.flags.writeable = False  # inputs are immutable; enforce it
    return arr


def _ref_bytes(ref: FieldRef) -> bytes:
    shm = _attach(ref.segment)
    return bytes(shm.buf[ref.offset:ref.offset + ref.nbytes])


@dataclass(frozen=True)
class _Shipped:
    """A job whose bulk input stayed behind in a segment.

    ``shell`` is the job's fields without ``data``/``payload`` (as a
    dict: a job cannot exist without its input) and ``ref`` says where
    the bulk is.  Refilling the shell yields the exact job the pickle
    path would have carried.
    """

    shell: dict
    ref: FieldRef


def _resolve(item: CompressionJob | _Shipped) -> CompressionJob:
    if isinstance(item, CompressionJob):
        return item
    if item.ref.kind == "array":
        return CompressionJob(**{**item.shell, "data": _view(item.ref)})
    return CompressionJob(**{**item.shell, "payload": _ref_bytes(item.ref)})


def run_jobs(items: list[CompressionJob | _Shipped]) -> list[Any]:
    """The worker entry: every dispatch that crosses the pool lands here.

    ``items`` are the jobs of one dispatch — by value, or as
    :class:`_Shipped` shells whose field waits in a segment; outputs
    align with inputs and return by value.
    """
    return [run_job(_resolve(item)) for item in items]


# -- transports -----------------------------------------------------------


@dataclass
class _Envelope:
    """One encoded dispatch: the picklable work plus its lease cleanup."""

    fn: Callable[..., Any]
    args: tuple
    _cleanup: Callable[[], None] | None = None

    def release(self) -> None:
        if self._cleanup is not None:
            cleanup, self._cleanup = self._cleanup, None
            cleanup()


class PickleTransport:
    """Pass-through transport: jobs cross the pool by value.

    The correct choice for ``thread``/``inline`` pools (same address
    space — no copy happens anyway) and the fallback when shared memory
    is unavailable.
    """

    name = "pickle"

    def encode_job(self, *jobs: CompressionJob) -> _Envelope:
        return _Envelope(fn=run_jobs, args=(list(jobs),))

    def close(self) -> None:
        pass


class ShmTransport:
    """Move fields by :class:`FieldRef`; copy only what must move.

    Small inputs the arena does not already hold (< ``min_bytes``, see
    :data:`SHM_MIN_BYTES`) still pickle, so the transport is strictly
    no-worse than pickling at every size.
    """

    name = "shm"

    def __init__(
        self, *, metrics: Any = None, min_bytes: int = SHM_MIN_BYTES,
        arena: ShmArena | None = None,
    ) -> None:
        self.arena = arena if arena is not None else ShmArena(metrics=metrics)
        self.min_bytes = min_bytes

    def _place(self, job: CompressionJob) -> FieldRef | None:
        """Where one job's bulk input crosses: a leased ref, or by value.

        Memory the arena already holds (a socket-ingested field, or a
        row-slab of one) ships as an offset ref into it — zero bytes
        move; anything else of at least ``min_bytes`` is copied once
        into a leased segment; smaller inputs ride the pickle channel.
        """
        if job.op == "compress":
            assert job.data is not None
            ref = self.arena.ref_of(job.data)
            if ref is not None:
                self.arena.lease(ref.segment)
                return ref
            if job.input_bytes >= self.min_bytes:
                return self.arena.put_array(job.data)
        elif job.input_bytes >= self.min_bytes:
            assert job.payload is not None
            return self.arena.put_bytes(bytes(job.payload))
        return None

    def encode_job(self, *jobs: CompressionJob) -> _Envelope:
        """Encode the jobs of one dispatch; the envelope owns the leases.

        Leases are parent-owned, so a worker SIGKILLed mid-job cannot
        leak an input segment — and if placing job k raises (a full
        ``/dev/shm``), the leases of jobs 0..k-1 are released here.
        """
        items: list[CompressionJob | _Shipped] = []
        leased: list[str] = []

        def release() -> None:
            for name in leased:
                self.arena.release(name)

        try:
            for job in jobs:
                ref = self._place(job)
                if ref is None:
                    items.append(job)
                    continue
                leased.append(ref.segment)
                items.append(_Shipped(
                    dict(vars(job), data=None, payload=None), ref
                ))
        except BaseException:
            release()
            raise
        return _Envelope(fn=run_jobs, args=(items,), _cleanup=release)

    def close(self) -> None:
        self.arena.close()


def resolve_transport(
    requested: str, pool_kind: str, *, metrics: Any = None,
) -> PickleTransport | ShmTransport:
    """Pick the transport for a scheduler.

    ``"auto"`` uses shared memory exactly when it pays: a process pool on
    a platform where segments work.  An explicit ``"shm"`` request falls
    back to pickle (transparently, as the in-process pools share an
    address space already) rather than failing — the service must come
    up everywhere.
    """
    if requested not in ("auto", "shm", "pickle"):
        raise ServiceError(
            f"unknown transport {requested!r} (auto | shm | pickle)"
        )
    want_shm = requested in ("auto", "shm")
    if want_shm and pool_kind == "process" and ShmArena.available():
        return ShmTransport(metrics=metrics)
    return PickleTransport()
