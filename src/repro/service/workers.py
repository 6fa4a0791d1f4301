"""Worker pool: where jobs actually execute.

Job functions live at module level so :class:`concurrent.futures.
ProcessPoolExecutor` can pickle them; a worker process resolves the codec
through the registry *inside* the child, so only small primitives (codec
name, bound, mode) and the field bytes cross the process boundary.

Three pool kinds:

``"process"``
    One OS process per worker — independent fields compress on all cores
    (the cuSZ-style coarse-grained batch axis).  The default.
``"thread"``
    Threads — no fork cost, still overlaps with the event loop; useful
    for serving small fields and on single-core machines.
``"inline"``
    ``max_workers=0``: run synchronously in the caller.  Deterministic
    and monkeypatch-friendly — the test mode.

All three run the *same* job functions, so results are byte-identical
across pool kinds and with the direct single-threaded library calls.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any, Callable

from ..codec.registry import get_codec
from ..errors import ServiceError
from .jobs import CompressionJob

__all__ = [
    "run_job",
    "WorkerPool",
]


def _warm_worker() -> None:
    """Process-pool initializer: pay the import cost at fork, not on the
    first job.  The registry import pulls in numpy, the codec layer and
    the kernel dispatch tables — tens of milliseconds that would
    otherwise land on the first request each cold worker sees."""
    import repro.codec.registry  # noqa: F401
    import repro.streams  # noqa: F401


def run_job(job: CompressionJob) -> Any:
    """Execute one job in the current process (any pool kind).

    Returns a :class:`CompressedField` for compress jobs (a
    :class:`~repro.parallel.TiledResult` when ``n_tiles > 1``) and the
    restored ``np.ndarray`` for decompress jobs — the exact objects the
    direct library calls produce, which is what keeps the service
    bit-exact with the single-threaded path.  A multi-tile job landing
    here runs the *serial* band loop inside this one worker; for
    data-parallel codecs the scheduler splits it into one single-tile
    job per band instead, and those land here too.
    """
    from ..streams import decompress_auto

    if job.op == "compress":
        assert job.data is not None
        if job.n_tiles > 1:
            from ..parallel import tile_compress

            return tile_compress(
                get_codec(job.codec), job.data, job.eb, job.mode,
                n_tiles=job.n_tiles,
            )
        return get_codec(job.codec).compress(job.data, job.eb, job.mode)
    assert job.payload is not None
    return decompress_auto(bytes(job.payload))


class WorkerPool:
    """A lazily started executor with an async door and an inline mode."""

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        kind: str = "process",
    ) -> None:
        import os

        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 0:
            raise ServiceError(f"max_workers must be >= 0, got {max_workers}")
        if kind not in ("process", "thread", "inline"):
            raise ServiceError(f"unknown pool kind {kind!r}")
        self.kind = "inline" if (max_workers == 0 or kind == "inline") else kind
        self.size = max(1, max_workers)
        self._executor: Executor | None = None
        self.restarts = 0  # times kill_hung() tore down the executor

    @property
    def executor(self) -> Executor | None:
        """The live executor, starting it on first use (None when inline)."""
        if self.kind == "inline":
            return None
        if self._executor is None:
            if self.kind == "process":
                self._executor = ProcessPoolExecutor(
                    max_workers=self.size, initializer=_warm_worker
                )
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.size, thread_name_prefix="repro-worker"
                )
        return self._executor

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Run ``fn(*args)`` on the pool; inline mode completes eagerly."""
        if self.kind == "inline":
            f: Future = Future()
            try:
                f.set_result(fn(*args))
            except BaseException as exc:  # noqa: BLE001 - relayed to caller
                f.set_exception(exc)
            return f
        return self.executor.submit(fn, *args)

    async def run(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Await ``fn(*args)`` on the pool from the event loop."""
        if self.kind == "inline":
            # Synchronous by design: unit tests want deterministic ordering.
            # Yield once so submissions already scheduled can interleave.
            await asyncio.sleep(0)
            return fn(*args)
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(self.executor, fn, *args)
        except BrokenExecutor:
            # A worker died hard (OOM kill, SIGKILL, segfault) and took
            # the executor down with it.  Respawn so the retry that this
            # *transient* error triggers lands on a healthy pool instead
            # of failing the same way instantly.
            if self.kind == "process":
                broken, self._executor = self._executor, None
                self.restarts += 1
                if broken is not None:
                    broken.shutdown(wait=False, cancel_futures=True)
            raise

    def kill_hung(self) -> int:
        """Tear down the live executor so a hung worker cannot wedge the
        pool forever; the next :attr:`executor` access starts a fresh one.

        For a process pool the worker processes are terminated outright
        (a hung C loop never reaches a cooperative cancellation point);
        thread pools cannot kill threads, so the stuck thread is leaked
        and a replacement executor takes over — bounded by the watchdog's
        hang budget, not by luck.  Returns the number of restarts so far.
        Inline pools have no executor to tear down.
        """
        if self.kind == "inline":
            return self.restarts
        executor = self._executor
        self._executor = None
        self.restarts += 1
        if executor is not None:
            if self.kind == "process":
                for proc in list(
                    getattr(executor, "_processes", {}).values()
                ):
                    try:
                        proc.terminate()
                    except (OSError, ValueError):  # pragma: no cover
                        pass
            executor.shutdown(wait=False, cancel_futures=True)
        return self.restarts

    def shutdown(self, *, wait: bool = True) -> None:
        """Tear the pool down; ``wait=False`` abandons stuck workers
        instead of blocking on them (used when a stop deadline blew)."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=not wait)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
