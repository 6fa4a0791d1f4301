"""Worker pool: where jobs actually execute.

Job functions live at module level so they pickle by import path; a
worker process resolves the codec through the registry *inside* the
child, so only small primitives (codec name, bound, mode) and the field
bytes cross the process boundary.

Three pool kinds:

``"process"``
    One long-lived OS process per worker, each on its own duplex pipe —
    independent fields compress on all cores (the cuSZ-style
    coarse-grained batch axis).  The default.
``"thread"``
    Threads — no fork cost, still overlaps with the event loop; useful
    for serving small fields and on single-core machines.
``"inline"``
    ``max_workers=0``: run synchronously in the caller.  Deterministic
    and monkeypatch-friendly — the test mode.

All three run the *same* job functions, so results are byte-identical
across pool kinds and with the direct single-threaded library calls.

The process pool has no thread of its own.  The thread that holds a job
pickles it and writes it to an idle worker's pipe; a reply is read by
whoever is waiting for it — the event loop :meth:`WorkerPool.run`
registered the pipes with, or the thread inside ``result()`` of a
:meth:`WorkerPool.submit` future — and that reader hands the worker its
next job.  A job :meth:`WorkerPool.run` awaits is an ``asyncio`` future
of that loop, which the loop's reader settles in place: no
``concurrent.futures`` future, no cross-thread wake-up.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import pickle
import signal
import struct
import threading
import time
import traceback
from collections import deque
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as wait_readable
from typing import Any, Callable, Iterator, Union

from ..codec.registry import get_codec
from ..errors import ServiceError, WorkerDiedError
from .jobs import CompressionJob

__all__ = [
    "run_job",
    "WorkerPool",
]

#: Longest one ``result()`` sleeps on the pipes before it checks whether
#: some other reader (a second waiting thread, the event loop) has
#: settled its future meanwhile.  A lone waiter is woken by its own
#: reply and never waits this out.
_PUMP_SLICE_S = 0.05


def _warm_worker() -> None:
    """Process-pool initializer: pay the import cost at fork, not on the
    first job.  The registry import pulls in numpy, the codec layer and
    the kernel dispatch tables — tens of milliseconds that would
    otherwise land on the first request each cold worker sees."""
    import repro.codec.registry  # noqa: F401
    import repro.streams  # noqa: F401


def run_job(job: CompressionJob) -> Any:
    """Execute one job in the current process (any pool kind).

    Returns a :class:`CompressedField` for compress jobs (variant
    ``tiled[...]`` when ``n_tiles > 1``) and the
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


class _RemoteTraceback(Exception):
    """The worker-side traceback of a relayed exception, as its cause."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _failure(exc: BaseException) -> bytes:
    """A worker's ``(False, (exception, traceback text))`` reply."""
    trace = "".join(traceback.format_exception(exc))
    try:
        return pickle.dumps((False, (exc, trace)), pickle.HIGHEST_PROTOCOL)
    except Exception:  # noqa: BLE001 - pickle raises several types
        exc = ServiceError(f"{type(exc).__name__}: {exc} (does not pickle)")
        return pickle.dumps((False, (exc, trace)), pickle.HIGHEST_PROTOCOL)


def _answer(request: bytes) -> bytes:
    """One job in a worker: unpickle ``(fn, args)``, run it, pickle
    ``(True, value)`` or :func:`_failure`.  A function of its own so
    that nothing of a job outlives its reply in an idle worker."""
    try:
        fn, args = pickle.loads(request)
        value = fn(*args)
    except BaseException as exc:  # noqa: BLE001 - relayed to the caller
        return _failure(exc)
    try:
        return pickle.dumps((True, value), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # noqa: BLE001 - pickle raises several types
        return _failure(ServiceError(
            f"the result of {getattr(fn, '__name__', fn)!r} does not "
            f"pickle: {type(exc).__name__}: {exc}"
        ))


def _serve(conn: Connection, inherited: list[Connection]) -> None:
    """A worker's whole life: ``recv -> fn(*args) -> send``, until EOF.

    ``inherited`` are the parent-side pipe ends the fork copied into
    this process — its own and its siblings'.  While any copy is open
    no worker ever reads EOF, so they are closed first: the parent's
    death (however sudden) then ends every worker at its next ``recv``.
    """
    for end in inherited:
        end.close()
    # The fork also copied the parent's signal set-up.  A signal aimed
    # at a worker must not land in the parent loop's wake-up socket, and
    # Ctrl-C reaches the whole foreground group: the parent decides what
    # becomes of running jobs, the closing pipe is what stops a worker.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _warm_worker()
    while True:
        try:
            conn.send_bytes(_answer(conn.recv_bytes()))
        except (EOFError, OSError):
            return  # the parent is gone, or has closed this worker's pipe


#: ``Connection.send_bytes``' framing: a 4-byte big-endian length, or
#: -1 and an 8-byte one from 2 GiB up.
_LENGTH = struct.Struct("!i")
_BIG_LENGTH = struct.Struct("!Q")
#: The pool's reply buffer: its first read takes up to this much, so a
#: small reply arrives in one ``readv``; a larger reply grows it, and
#: it is kept up to ``_INBOX_MAX_BYTES``.
_INBOX_BYTES = 1 << 16
_INBOX_MAX_BYTES = 16 << 20


class _Inbox:
    """Where a pool receives its workers' replies: one kept buffer.

    ``Connection.recv_bytes`` reads a message in chunks, each a fresh
    ``bytes`` copied into a growing ``BytesIO``, so every reply of a
    field-sized result allocated and freed a field-sized buffer or
    more.  Here the reply lands in place, read straight from the pipe.
    A worker has at most one job in flight, so its pipe never holds
    more than the reply being read: a read cannot take the next one's
    bytes.  The caller holds the pool's lock.
    """

    def __init__(self) -> None:
        self._buf = bytearray(_INBOX_BYTES)

    def receive(self, conn: Connection) -> memoryview:
        """The next message on ``conn``, valid until the next call."""
        fd, buf = conn.fileno(), self._buf
        got = _read_into(fd, memoryview(buf))
        start = _LENGTH.size
        got = _read_until(fd, buf, got, start)
        (size,) = _LENGTH.unpack_from(buf)
        if size == -1:
            got = _read_until(fd, buf, got, start + _BIG_LENGTH.size)
            (size,) = _BIG_LENGTH.unpack_from(buf, start)
            start += _BIG_LENGTH.size
        if start + size > len(buf):
            buf = bytearray(start + size)
            buf[:got] = memoryview(self._buf)[:got]
            if len(buf) <= _INBOX_MAX_BYTES:
                self._buf = buf
        _read_until(fd, buf, got, start + size)
        return memoryview(buf)[start:start + size]


def _read_into(fd: int, view: memoryview) -> int:
    n = os.readv(fd, [view])
    if not n:
        raise EOFError
    return n


def _read_until(fd: int, buf: bytearray, got: int, want: int) -> int:
    """Read until ``buf`` holds ``want`` bytes; returns how many it holds."""
    with memoryview(buf) as view:
        while got < want:
            got += _read_into(fd, view[got:want])
    return got


def _read_reply(reply: bytes) -> tuple[bool, Any]:
    """``(ok, value | exception)`` out of a worker's reply."""
    try:
        ok, value = pickle.loads(reply)
    except Exception as exc:  # noqa: BLE001 - pickle raises several types
        return False, ServiceError(
            f"a worker's reply does not unpickle: {type(exc).__name__}: {exc}"
        )
    if not ok:
        value, trace = value
        value.__cause__ = _RemoteTraceback(trace)
    return ok, value


#: A job's future: a :class:`_PipeFuture` from :meth:`WorkerPool.submit`,
#: or an ``asyncio`` future of the registered loop from
#: :meth:`WorkerPool.run`.
_JobFuture = Union[Future, asyncio.Future]


@dataclass(eq=False)
class _Worker:
    """One forked worker: its process, our end of its pipe, and the
    future of the job it is running (``None`` while idle)."""

    proc: Any
    conn: Connection
    future: _JobFuture | None = None
    #: A pump read this pipe last, so a readable report the loop made
    #: before that may be stale: the loop's next call checks first.
    pumped: bool = False


def _settle(future: _JobFuture, ok: bool, value: Any) -> None:
    """Settle one job's future, unless it was cancelled in flight (the
    reply then has no taker).  An ``asyncio`` future is settled on its
    own loop: in place on that loop's thread, else through the loop."""
    if isinstance(future, asyncio.Future) and not _running(future.get_loop()):
        try:
            future.get_loop().call_soon_threadsafe(_settle_here, future, ok, value)
        except RuntimeError:
            pass  # the loop is closed: nobody awaits the future
        return
    _settle_here(future, ok, value)


def _settle_here(future: _JobFuture, ok: bool, value: Any) -> None:
    if future.done():
        return
    try:
        (future.set_result if ok else future.set_exception)(value)
    except InvalidStateError:
        pass  # cancelled by another thread meanwhile


def _running(loop: asyncio.AbstractEventLoop) -> bool:
    """Whether ``loop`` is the loop running on this thread."""
    try:
        return asyncio.get_running_loop() is loop
    except RuntimeError:
        return False


class _PipeFuture(Future):
    """A process-pool job.  Nothing runs behind it: whoever wants the
    outcome reads the pipes, so ``result()`` / ``exception()`` pump the
    pool until this future is settled (by them, by another waiter, or by
    the event loop the pool is registered with)."""

    def __init__(self, pool: "WorkerPool") -> None:
        super().__init__()
        self._pool = pool

    def result(self, timeout: float | None = None) -> Any:
        return super().result(self._pool._pump_until(self, timeout))

    def exception(self, timeout: float | None = None) -> BaseException | None:
        return super().exception(self._pool._pump_until(self, timeout))


class WorkerPool:
    """A lazily started pool with an async door and an inline mode.

    A process pool may be used from several threads through
    :meth:`submit`; once :meth:`run` has registered it with an event
    loop, drive it from that loop's thread only (``submit().result()``
    there still works, with the loop blocked meanwhile).
    """

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
        #: One per worker that died, one per :meth:`kill_hung`.
        self.restarts = 0
        self._threads: ThreadPoolExecutor | None = None
        # The process kind's state, all of it guarded by ``_lock``:
        self._lock = threading.Lock()
        self._workers: list[_Worker] = []
        #: Jobs beyond ``size`` in flight, oldest first: (future, pickle).
        self._backlog: deque[tuple[_JobFuture, bytes]] = deque()
        #: The loop whose readers watch the pipes, once run() was used.
        self._loop: asyncio.AbstractEventLoop | None = None
        self._inbox = _Inbox()

    @contextmanager
    def _locked(self) -> Iterator[list[tuple[_JobFuture, bool, Any]]]:
        """Hold the lock; settle the ``(future, ok, value | exception)``
        triples the block collected once it is released — done-callbacks
        are the caller's code."""
        settled: list[tuple[_JobFuture, bool, Any]] = []
        with self._lock:
            yield settled
        for triple in settled:
            _settle(*triple)

    def worker_pids(self) -> list[int]:
        """The live worker processes (none for thread / inline pools, and
        none before the first job)."""
        with self._lock:
            return [w.proc.pid for w in self._workers]

    # -- the two doors ---------------------------------------------------

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Run ``fn(*args)`` on the pool; inline mode completes eagerly.

        A process pool's future is settled by whoever reads the pipes —
        its own ``result()`` / ``exception()``, or the loop of
        :meth:`run` — never behind the caller's back, so wait on it with
        those two, not with ``concurrent.futures.wait``.
        """
        if self.kind == "inline":
            f: Future = Future()
            try:
                f.set_result(fn(*args))
            except BaseException as exc:  # noqa: BLE001 - relayed to caller
                f.set_exception(exc)
            return f
        if self.kind == "thread":
            return self._thread_executor().submit(fn, *args)
        return self._enqueue(_PipeFuture(self), fn, args)

    async def run(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Await ``fn(*args)`` on the pool from the event loop."""
        if self.kind == "inline":
            # Synchronous by design: unit tests want deterministic ordering.
            # Yield once so submissions already scheduled can interleave.
            await asyncio.sleep(0)
            return fn(*args)
        loop = asyncio.get_running_loop()
        if self.kind == "thread":
            return await loop.run_in_executor(
                self._thread_executor(), fn, *args
            )
        # The job is written to a worker's pipe right here and this
        # loop's reader settles its future: no thread anywhere in between.
        self._watch(loop)
        return await self._enqueue(loop.create_future(), fn, args)

    # -- process kind: hand-off and replies ------------------------------

    def _enqueue(
        self, future: _JobFuture, fn: Callable[..., Any], args: tuple
    ) -> _JobFuture:
        """Pickle ``fn(*args)`` and hand it to an idle worker, or queue
        it behind the busy ones; ``future`` takes its outcome."""
        try:
            request = pickle.dumps((fn, args), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - pickle raises several
            future.set_exception(ServiceError(
                f"a job for {getattr(fn, '__name__', fn)!r} does not "
                f"pickle: {type(exc).__name__}: {exc}"
            ))
            return future
        with self._locked() as settled:
            self._backlog.append((future, request))
            self._feed(settled)
        return future

    def _feed(self, settled: list) -> None:
        """Hand waiting jobs to idle workers, forking one while the pool
        is below ``size`` (lock held).  A worker found dead at the write
        fails the job meant for it — transient, so the caller's retry
        lands on a fresh one."""
        while self._backlog:
            worker = next(
                (w for w in self._workers if w.future is None), None
            )
            if worker is None:
                if len(self._workers) >= self.size:
                    return
                worker = self._spawn()
            worker.future, request = self._backlog.popleft()
            if worker.future.cancelled():
                worker.future = None
                continue
            try:
                worker.conn.send_bytes(request)
            except OSError:
                self._bury(worker, settled)
                self.restarts += 1

    def _spawn(self) -> _Worker:
        # Forked, like the executor's workers before them: the child
        # starts in milliseconds with every imported module (and every
        # test seam) in place, which is what lets the pool start lazily
        # inside the first request.
        fork = multiprocessing.get_context("fork")
        ours, theirs = fork.Pipe()
        proc = fork.Process(
            target=_serve,
            args=(theirs, [ours, *(w.conn for w in self._workers)]),
            name="repro-worker",
            daemon=True,  # interpreter exit never waits on a worker
        )
        proc.start()
        theirs.close()
        worker = _Worker(proc, ours)
        self._workers.append(worker)
        if self._loop is not None and not self._loop.is_closed():
            self._loop.add_reader(ours.fileno(), self._on_readable, worker, True)
        return worker

    def _bury(self, worker: _Worker, settled: list) -> None:
        """Remove one worker (lock held) — dead already, or killed here.
        The job it held fails as transient; its slot refills on demand."""
        self._workers.remove(worker)
        if self._loop is not None:
            self._loop.remove_reader(worker.conn.fileno())
        worker.conn.close()
        worker.proc.kill()
        worker.proc.join(1.0)
        if worker.future is not None:
            settled.append((worker.future, False, WorkerDiedError(
                f"worker pid {worker.proc.pid} died with a job in flight"
            )))

    def _on_readable(self, worker: _Worker, by_loop: bool = False) -> None:
        """The one reply handler, for the loop's readers and the pump
        alike: take the reply (or the EOF) off ``worker``'s pipe, then
        hand the freed slot the oldest waiting job.

        The loop calls it (``by_loop``) right after its selector saw the
        pipe readable, so the pipe is asked again only if a pump read it
        since; a pump's own report may have been taken by another reader.
        """
        with self._locked() as settled:
            stale = worker.pumped or not by_loop
            worker.pumped = not by_loop
            if worker not in self._workers or (stale and not worker.conn.poll(0)):
                return  # another reader got here first
            try:
                reply = self._inbox.receive(worker.conn)
            except (EOFError, OSError):
                self._bury(worker, settled)
                self.restarts += 1
            else:
                if worker.future is not None:
                    settled.append((worker.future, *_read_reply(reply)))
                worker.future = None
            self._feed(settled)

    def _watch(self, loop: asyncio.AbstractEventLoop) -> None:
        """Have ``loop`` (and no longer the previous one) read replies."""
        if self._loop is loop:
            return
        with self._lock:
            for w in self._workers:
                if self._loop is not None:
                    self._loop.remove_reader(w.conn.fileno())
                loop.add_reader(w.conn.fileno(), self._on_readable, w, True)
            self._loop = loop

    def _pump(self, timeout: float | None) -> bool:
        """Read the replies that arrive within ``timeout`` on the calling
        thread; False when no worker holds a job (nothing to wait for)."""
        with self._lock:
            busy = {w.conn: w for w in self._workers if w.future is not None}
        for conn in wait_readable(list(busy), timeout) if busy else ():
            self._on_readable(busy[conn])
        return bool(busy)

    def _pump_until(
        self, future: Future, timeout: float | None
    ) -> float | None:
        """Pump until ``future`` is settled or ``timeout`` has passed;
        returns what is left of the timeout for the caller's own wait."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not future.done():
            if deadline is not None:
                timeout = max(0.0, deadline - time.monotonic())
            # Another reader may settle ``future`` while this thread
            # sleeps on pipes that then stay silent, so look up from the
            # pipes now and then.  Unsettled with nothing in flight means
            # another reader holds the reply and is about to settle it:
            # the caller's own wait is the right one for that.
            if timeout == 0.0 or not self._pump(
                _PUMP_SLICE_S if timeout is None
                else min(timeout, _PUMP_SLICE_S)
            ):
                break
        return timeout

    # -- lifecycle -------------------------------------------------------

    def _thread_executor(self) -> ThreadPoolExecutor:
        if self._threads is None:
            self._threads = ThreadPoolExecutor(
                max_workers=self.size, thread_name_prefix="repro-worker"
            )
        return self._threads

    def kill_hung(self) -> int:
        """Kill the live workers so a hung one cannot wedge the pool
        forever; the jobs they held fail as transient and fresh workers
        start with the next job.

        Process workers are SIGKILLed outright (a hung C loop never
        reaches a cooperative cancellation point); thread pools cannot
        kill threads, so the stuck thread is leaked and a replacement
        executor takes over — bounded by the watchdog's hang budget, not
        by luck.  Returns the number of restarts so far.  Inline pools
        have nothing to tear down.
        """
        if self.kind == "inline":
            return self.restarts
        self.restarts += 1
        if self._threads is not None:
            self._threads.shutdown(wait=False, cancel_futures=True)
            self._threads = None
        with self._locked() as settled:
            for worker in list(self._workers):
                self._bury(worker, settled)
            self._feed(settled)
        return self.restarts

    def shutdown(self, *, wait: bool = True) -> None:
        """Tear the pool down; ``wait=False`` kills stuck workers instead
        of blocking on them (used when a stop deadline blew).  The next
        job starts a fresh pool."""
        if self._threads is not None:
            self._threads.shutdown(wait=wait, cancel_futures=not wait)
            self._threads = None
        while wait and self._pump(_PUMP_SLICE_S):
            pass  # jobs in flight, and the backlog behind them, finish
        with self._locked() as settled:
            for worker in list(self._workers):
                self._bury(worker, settled)
            while self._backlog:
                settled.append((self._backlog.popleft()[0], False,
                                WorkerDiedError("the pool was shut down")))
            self._loop = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
