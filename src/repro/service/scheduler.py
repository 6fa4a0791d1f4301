"""Asyncio batch scheduler: bounded intake, worker dispatch, retries.

The control plane of the service.  Jobs enter through :meth:`BatchScheduler.
submit` (fail-fast or blocking backpressure against the bounded queue),
a dispatcher per busy worker slot pulls them by priority and runs each
on the :class:`~repro.service.workers.WorkerPool`, and failures retry
with exponential backoff *only* when :func:`repro.faults.is_transient`
says retrying can help.  :meth:`BatchScheduler.run` is submit-and-wait
in one call: a job that finds a slot free and nothing queued runs in
the caller's own task, with no dispatcher in between.  Every transition
lands in the :class:`~repro.service.metrics.MetricsRegistry`.

The synchronous convenience :func:`run_batch` wraps the whole lifecycle
(start → submit all → drain → stop) for CLI batch mode, benches and tests.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import replace
from typing import Callable, Sequence

from ..codec.registry import REGISTRY
from ..errors import (
    DeadlineExpiredError,
    JobFailedError,
    QueueFullError,
    ServiceError,
    WorkerHungError,
)
from ..faults import is_transient
from ..parallel import pack_tiles, plan_bands
from ..types import CompressedField
from .jobs import CompressionJob, JobHandle, JobResult, JobState
from .metrics import MetricsRegistry, ServiceStats
from .queue import BoundedJobQueue
from .shm import resolve_transport
from .workers import WorkerPool, run_job

__all__ = ["BatchScheduler", "run_batch"]

#: Ceiling of the exponential retry backoff.  From the default 20 ms
#: base it is first reached at the seventh attempt; it keeps a generous
#: ``max_retries`` from parking one job for longer than a second a try.
_BACKOFF_CAP_S = 1.0

#: Most jobs one micro-batch carries.  A batch is one worker round trip
#: whose jobs all finish together, so its size bounds how long the first
#: job waits on the rest while other workers may fall idle.
_BATCH_MAX_JOBS = 16


class BatchScheduler:
    """Accepts jobs, schedules them over a worker pool, tracks outcomes."""

    def __init__(
        self,
        *,
        pool: WorkerPool | None = None,
        workers: int | None = None,
        pool_kind: str = "process",
        queue_size: int = 128,
        max_retries: int = 2,
        backoff_base_s: float = 0.02,
        hang_timeout_s: float | None = None,
        metrics: MetricsRegistry | None = None,
        transport: str = "auto",
        batch_bytes: int = 0,
    ) -> None:
        self.pool = pool if pool is not None else WorkerPool(
            workers, kind=pool_kind
        )
        self.queue = BoundedJobQueue(queue_size)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.hang_timeout_s = hang_timeout_s
        #: How fields cross the pool boundary.  ``"auto"`` resolves to
        #: shared memory for process pools (zero-copy `FieldRef`s) and
        #: pickle for thread/inline pools (same address space already).
        self.transport = resolve_transport(
            transport, self.pool.kind, metrics=self.metrics
        )
        #: Micro-batching: jobs smaller than ``batch_bytes`` that queued
        #: while every worker slot was busy leave as one worker dispatch
        #: (at most ``_BATCH_MAX_JOBS``), so tiny fields under load stop
        #: paying a full pool round-trip each.  ``0`` disables batching.
        self.batch_bytes = batch_bytes
        self._batch_dispatches = 0
        self._batch_jobs = 0
        self._started = False
        #: Worker slots with no job and no dispatcher about to take one.
        self._free = 0
        #: Dispatchers started for queued jobs that have taken none yet.
        self._waiting = 0
        #: The tasks holding a slot: dispatchers, and callers of
        #: :meth:`run` executing their own job.
        self._runners: set[asyncio.Task] = set()
        self._vacant = asyncio.Event()
        self._vacant.set()
        #: Set once :meth:`stop` gave up waiting and cancelled the runners.
        self._abandoned = False
        self._in_flight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        # Seam for tests and alternative work kinds: the function a worker
        # runs.  Must stay module-level-picklable for process pools.
        # When substituted, dispatch bypasses the transport *and* the
        # micro-batcher so the substituted function sees whole jobs.
        self._worker_fn: Callable[[CompressionJob], object] = run_job

    # -- intake ----------------------------------------------------------

    async def submit(
        self, job: CompressionJob, *, block: bool = False
    ) -> JobHandle:
        """Submit one job; returns its handle.

        ``block=False`` applies fail-fast backpressure: a full queue
        raises :class:`QueueFullError` (and counts a rejection).
        ``block=True`` waits for a slot instead — backpressure as delay.
        """
        handle = JobHandle(job)
        handle._done = asyncio.Event()
        self.metrics.count(job.metrics_key, "submitted")
        try:
            if block:
                await self.queue.put(handle)
            else:
                self.queue.put_nowait(handle)
        except QueueFullError:
            handle.finish(JobState.REJECTED)
            self.metrics.count(job.metrics_key, "rejected")
            raise
        handle.state = JobState.QUEUED
        self._idle.clear()
        self._fill()
        return handle

    async def run(self, job: CompressionJob) -> JobResult:
        """:meth:`submit` (fail-fast) then :meth:`wait`, in one call.

        A job that finds a worker slot free and nothing queued skips the
        queue: it runs right here, in the caller's task, through the same
        attempt loop a dispatcher would run it through.  Everything else
        queues and waits its turn.
        """
        if not self._free or self.queue.depth or self.queue.closed:
            return await self.wait(await self.submit(job))
        handle = JobHandle(job)
        self.metrics.count(job.metrics_key, "submitted")
        handle.state = JobState.QUEUED
        self._free -= 1
        self._in_flight += 1
        self._idle.clear()
        runner = self._hold(asyncio.current_task())
        try:
            await self._run_one(handle)
        except asyncio.CancelledError:
            if not self._abandoned:
                raise
            # stop() gave up on this job: fail it like a dispatcher's,
            # and keep the caller, which is not stop()'s to cancel
            getattr(runner, "uncancel", lambda: 0)()
            self._fail_at_deadline([handle])
        finally:
            self._in_flight -= 1
            self._free += 1
            self._fill()
            self._settled()
            self._release(runner)
        return self._outcome(handle)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Give every worker slot a dispatcher on the running loop: each
        takes what is queued by then and frees its slot once the queue
        is empty."""
        if self._started:
            return
        self._started = True
        for _ in range(self.pool.size):
            self._spawn(waiting=False)

    async def stop(self, *, deadline_s: float | None = None) -> None:
        """Graceful shutdown: close intake, drain in-flight, bounded.

        Queued and running jobs finish normally (their callers get real
        results) — intake is closed so nothing new enters.  With a
        ``deadline_s``, the dispatchers and :meth:`run` callers still
        running a job by then are cancelled and each such job fails
        with a :class:`JobFailedError` so no waiter hangs forever.
        """
        self.queue.close()
        abandoned = False
        try:
            await asyncio.wait_for(self._vacant.wait(), deadline_s)
        except asyncio.TimeoutError:
            abandoned = self._abandoned = True
            for task in self._runners:
                task.cancel()
            await self._vacant.wait()
        # a blown deadline means some worker is stuck mid-job; joining it
        # would re-introduce the unbounded wait the deadline exists to cap
        self.pool.shutdown(wait=not abandoned)
        # after the pool is down no worker can hold a segment: unlink
        # everything, reclaiming leases a killed worker left behind
        self.transport.close()

    async def drain(self) -> None:
        """Wait until the queue is empty and no job is in flight."""
        while self.queue.depth or self._in_flight:
            self._idle.clear()
            await self._idle.wait()

    async def __aenter__(self) -> "BatchScheduler":
        self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.drain()
        await self.stop()

    # -- dispatch --------------------------------------------------------

    def _fill(self) -> None:
        """Start a dispatcher for each queued job a free slot can take."""
        while self._free and self._waiting < self.queue.depth and not self._abandoned:
            self._free -= 1
            self._spawn(waiting=True)

    def _spawn(self, *, waiting: bool) -> None:
        """Start a dispatcher.  From :meth:`_fill` (``waiting``) it holds
        a slot taken off ``_free`` for a queued job, and until it runs
        that job is its own, not part of another dispatcher's batch.
        From :meth:`start` it holds one of the slots no job has used."""
        self._waiting += waiting
        task = asyncio.get_running_loop().create_task(
            self._dispatch_loop(waiting), name="repro-dispatch"
        )
        task.add_done_callback(self._release)
        self._hold(task)

    def _hold(self, runner: asyncio.Task) -> asyncio.Task:
        self._runners.add(runner)
        self._vacant.clear()
        return runner

    def _release(self, runner: asyncio.Task) -> None:
        self._runners.discard(runner)
        if not self._runners:
            self._vacant.set()

    def _settled(self) -> None:
        if not self._in_flight and not self.queue.depth:
            self._idle.set()

    async def _dispatch_loop(self, waiting: bool) -> None:
        """One slot's dispatcher: run queued jobs by priority until none
        is left, then free the slot."""
        self._waiting -= waiting
        try:
            while (handle := self.queue.get_nowait()) is not None:
                self._in_flight += 1
                group = [handle]
                try:
                    if self._route(handle.job) == "batch":
                        group = self._collect_group(handle)
                    if len(group) == 1:
                        await self._run_one(handle)
                    else:
                        await self._run_group(group)
                except asyncio.CancelledError:
                    # shutdown deadline expired mid-run: fail the handles
                    # so their waiters are released, then let the
                    # cancellation win.
                    self._fail_at_deadline(group)
                    raise
                finally:
                    self._in_flight -= len(group)
                    self._settled()
        finally:
            self._free += 1

    def _fail_at_deadline(self, handles: list[JobHandle]) -> None:
        for h in handles:
            if h.result is None and h.error is None:
                h.finish(
                    JobState.FAILED,
                    error=JobFailedError(
                        f"job {h.job.job_id!r} cancelled at shutdown deadline"
                    ),
                )
                self.metrics.count(h.job.metrics_key, "failed")

    def _route(self, job: CompressionJob) -> str:
        """How a job reaches a worker — decided once, here.

        ``"seam"``: a substituted ``_worker_fn`` always sees the whole
        job, so it opts out of the transport, the micro-batcher and the
        fan-out alike.  ``"fanout"``: multi-tile compress jobs of
        data-parallel codecs spread their bands across the pool.
        Classic wavefront codecs still tile, but serially inside one
        worker (:func:`run_job`): their per-band sweeps hog a core each,
        so spreading one job's bands buys nothing a second *job* would
        not use better.  Dual-quant codecs have no wavefront — their
        bands are the intra-job parallel axis the registry flag
        advertises.  ``"batch"``: small single-tile jobs may share one
        coalesced dispatch.  ``"single"``: everything else.
        """
        if self._worker_fn is not run_job:
            return "seam"
        if (
            job.op == "compress"
            and job.n_tiles > 1
            and REGISTRY.entry(job.codec).data_parallel
        ):
            return "fanout"
        if (
            self.batch_bytes > 0
            and job.batch_eligible
            and job.input_bytes < self.batch_bytes
        ):
            return "batch"
        return "single"

    def _collect_group(self, first: JobHandle) -> list[JobHandle]:
        """Coalesce the small jobs that queued behind ``first`` while
        every worker slot was busy.

        The dispatcher holding ``first`` owns a slot, so it never waits
        for company, and while another slot is free (or its dispatcher
        has not taken a job yet) the next job is that slot's to take.
        What is left — the backlog of a saturated pool — is the batch:
        no timer, the queue decides.  A non-batchable head stops
        collection and stays queued for another dispatcher.
        """
        group = [first]
        while len(group) < _BATCH_MAX_JOBS and not (self._free or self._waiting):
            nxt = self.queue.peek()
            if nxt is None or self._route(nxt.job) != "batch":
                break
            self.queue.get_nowait()
            self._in_flight += 1
            group.append(nxt)
        return group

    def _start(self, handle: JobHandle) -> bool:
        """Leave the queue: ``RUNNING``, or ``EXPIRED`` past the deadline."""
        job = handle.job
        if handle.expired:
            handle.finish(
                JobState.EXPIRED,
                error=DeadlineExpiredError(
                    f"job {job.job_id!r} missed its {job.deadline_s:g}s "
                    "deadline while queued"
                ),
            )
            self.metrics.count(job.metrics_key, "expired")
            return False
        handle.state = JobState.RUNNING
        handle.started_at = time.monotonic()
        handle.attempts = 1
        return True

    async def _run_group(self, group: list[JobHandle]) -> None:
        """One coalesced dispatch: N small jobs, one pool round-trip.

        Any group-level failure falls back to dispatching each member
        individually through :meth:`_run_one` — every job keeps its full
        retry budget, so batching can never *reduce* a job's chances.
        """
        live = [h for h in group if self._start(h)]
        if not live:
            return
        t0 = time.monotonic()
        try:
            outputs = await self._guard_hang(
                self._cross_pool([h.job for h in live]),
                f"batch of {len(live)} jobs",
            )
        except Exception:  # noqa: BLE001 - group fails over to singles
            self.metrics.incr("batch.fallbacks")
            for h in live:
                await self._run_one(h)
            return
        run_s = time.monotonic() - t0
        self._batch_dispatches += 1
        self._batch_jobs += len(live)
        self.metrics.incr("batch.dispatches")
        self.metrics.incr("batch.jobs", len(live))
        self.metrics.set_gauge(
            "batch.occupancy", self._batch_jobs / self._batch_dispatches
        )
        for h, output in zip(live, outputs):
            self._settle(h, output, run_s=run_s)

    async def _run_one(self, handle: JobHandle) -> None:
        if not self._start(handle):
            return
        job = handle.job
        key = job.metrics_key
        attempts = self.max_retries + 1
        for attempt in range(1, attempts + 1):
            handle.attempts = attempt
            t0 = time.monotonic()
            try:
                output = await self._guard_hang(
                    self._attempt(job), f"job {job.job_id!r}"
                )
            except Exception as exc:  # noqa: BLE001 - classified below
                if is_transient(exc) and attempt < attempts:
                    self.metrics.count(key, "retried")
                    delay = min(
                        _BACKOFF_CAP_S,
                        self.backoff_base_s * (2 ** (attempt - 1)),
                    )
                    await asyncio.sleep(delay)
                    continue
                handle.finish(
                    JobState.FAILED,
                    error=JobFailedError(
                        f"job {job.job_id!r} ({job.op} {job.codec}) failed "
                        f"after {attempt} attempt(s): "
                        f"{type(exc).__name__}: {exc}"
                    ),
                )
                handle.error.__cause__ = exc
                self.metrics.count(key, "failed")
                return
            self._settle(handle, output, run_s=time.monotonic() - t0)
            return

    async def _attempt(self, job: CompressionJob) -> object:
        """One execution of one job, by its route."""
        route = self._route(job)
        if route == "seam":
            return await self.pool.run(self._worker_fn, job)
        if route == "fanout":
            return await self._fan_out(job)
        [output] = await self._cross_pool([job])
        return output

    async def _guard_hang(self, work, label: str) -> object:
        """Await pool work under the watchdog's hang budget.

        With ``hang_timeout_s`` set, a worker that does not come back in
        time is killed (:meth:`WorkerPool.kill_hung`; fresh workers start
        with the next job) and the attempt fails with :class:`WorkerHungError` —
        a *transient* error, so the normal retry loop gets the next
        attempt on a fresh worker.
        """
        if self.hang_timeout_s is None:
            return await work
        try:
            return await asyncio.wait_for(work, self.hang_timeout_s)
        except asyncio.TimeoutError:
            self.pool.kill_hung()
            self.metrics.incr("watchdog.kills")
            raise WorkerHungError(
                f"{label} exceeded the {self.hang_timeout_s:g}s "
                "hang budget; worker killed and pool respawned"
            ) from None

    async def _cross_pool(self, jobs: list[CompressionJob]) -> list:
        """The one place work crosses the pool: the jobs of one dispatch
        go out through the transport, their outputs come back aligned,
        by value.

        The input leases are released in ``finally`` — parent-owned, so
        a worker SIGKILLed mid-job cannot leak an input segment.
        """
        envelope = self.transport.encode_job(*jobs)
        try:
            return await self.pool.run(envelope.fn, *envelope.args)
        finally:
            envelope.release()

    async def _fan_out(self, job: CompressionJob) -> CompressedField:
        """Fan one dp job's tile bands across the pool.

        Each band of the plan (:meth:`BandPlan.bands`) is a job of its
        own, so it crosses the pool like any other; gathered in band
        order and packed by :func:`pack_tiles` as the serial path does,
        the payload is byte-identical to a single worker running
        :func:`run_job` on the same job.
        """
        assert job.data is not None
        plan = plan_bands(job.data, job.eb, job.mode, job.n_tiles)
        bands = await asyncio.gather(*(
            self._cross_pool(
                [replace(job, data=rows, eb=eb, mode=mode, n_tiles=1)]
            )
            for rows, eb, mode in plan.bands(job.data)
        ))
        self.metrics.incr("scheduler.tile_fanouts")
        return pack_tiles(
            REGISTRY.canonical(job.codec), job.data, plan,
            [compressed for [compressed] in bands],
        )

    def _settle(
        self, handle: JobHandle, output: object, *, run_s: float
    ) -> None:
        """Finish a handle with its worker output and record the job."""
        job = handle.job
        stats = None
        if isinstance(output, CompressedField):
            stats = output.stats
            output = output.payload
        now = time.monotonic()
        started = handle.started_at or now
        result = JobResult(
            job_id=job.job_id,
            codec=job.codec,
            op=job.op,
            output=output,
            stats=stats,
            attempts=handle.attempts,
            queued_s=started - handle.submitted_at,
            run_s=run_s,
            total_s=now - handle.submitted_at,
        )
        handle.finish(JobState.DONE, result=result)
        self.metrics.observe_completion(
            job.metrics_key,
            latency_s=result.total_s,
            bytes_in=job.input_bytes,
            bytes_out=(
                len(output) if isinstance(output, (bytes, bytearray)) else 0
            ),
        )

    # -- observation -----------------------------------------------------

    async def wait(self, handle: JobHandle) -> JobResult:
        """Await a handle's terminal state; raise its error on failure."""
        assert handle._done is not None, "handle was not submitted"
        await handle._done.wait()
        return self._outcome(handle)

    @staticmethod
    def _outcome(handle: JobHandle) -> JobResult:
        if handle.result is not None:
            return handle.result
        assert handle.error is not None
        raise handle.error

    def stats(self) -> ServiceStats:
        return self.metrics.snapshot(
            queue_depth=self.queue.depth,
            queue_capacity=self.queue.maxsize,
            queue_high_water=self.queue.high_water,
            in_flight=self._in_flight,
            workers=self.pool.size,
        )


def run_batch(
    jobs: Sequence[CompressionJob],
    *,
    workers: int | None = None,
    pool_kind: str = "process",
    pool: WorkerPool | None = None,
    queue_size: int = 128,
    max_retries: int = 2,
    block: bool = True,
    transport: str = "auto",
    batch_bytes: int = 0,
) -> tuple[list[JobResult | None], ServiceStats]:
    """Run a batch end-to-end and return (results, final stats).

    Results align with ``jobs`` by position; a failed/expired job yields
    ``None`` in its slot (its error is recorded on the stats counters).
    ``block=True`` submits with waiting backpressure so any batch size
    flows through the bounded queue.  ``transport``/``batch_bytes``
    forward to :class:`BatchScheduler` (shared-memory field transport
    and the micro-batch coalescing threshold).
    """

    async def _main() -> tuple[list[JobResult | None], ServiceStats]:
        sched = BatchScheduler(
            pool=pool,
            workers=workers,
            pool_kind=pool_kind,
            queue_size=queue_size,
            max_retries=max_retries,
            transport=transport,
            batch_bytes=batch_bytes,
        )
        results: list[JobResult | None] = [None] * len(jobs)
        async with sched:
            handles = []
            for job in jobs:
                handles.append(await sched.submit(job, block=block))
            for i, h in enumerate(handles):
                try:
                    results[i] = await sched.wait(h)
                except ServiceError:
                    results[i] = None
            stats = sched.stats()
        return results, stats

    return asyncio.run(_main())
