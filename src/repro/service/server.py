"""TCP front end: one connection loop over the op table.

:class:`WireServer` is the whole server side of the protocol — listener
lifecycle, frame reading (:mod:`repro.service.wire`), one dict lookup in
the op table (:mod:`repro.service.ops`), request-id dedup, drain
refusals, typed error frames, sever-on-stop.  What a server *can*
answer follows from what it holds: :class:`CompressionServer` brings a
:class:`BatchScheduler` (and optionally an
:class:`~repro.store.ArrayStore`), the shard gateway's server
(:class:`repro.shard.GatewayServer`) brings a sharded store and no
scheduler; an op whose ``needs`` is absent gets a typed refusal.

Failures cross the wire typed: error responses carry the exception
class name plus op and request id, and :class:`ServiceClient` re-raises
``StoreError`` / ``ChecksumError`` / ``ContainerError`` locally so retry
and failover classification work end-to-end.
"""

from __future__ import annotations

import asyncio
import sys
from typing import Any, Callable

from .. import __version__
from ..errors import QueueFullError, ReproError, ServiceError
from ..lru import BoundedLRU
from . import wire
from .client import ServiceClient
from .metrics import MetricsRegistry
from .ops import Op, lookup
from .scheduler import BatchScheduler

__all__ = ["WireServer", "CompressionServer", "ServiceClient", "serve", "run_until_sigterm"]

#: Completed responses remembered per request id — big enough that any
#: sane retry window replays from cache.  Field-sized responses make it
#: real memory: without the byte cap 512 decompressed 2 MB fields would
#: be a gigabyte, and at the cap it still holds 64 MiB of frames (on
#: ``svc_large_fields`` it grows ``wavesz serve`` from 40 to ~120 MB,
#: more than either worker).  The ``stats`` gauges
#: ``server.replay_bytes`` / ``server.replay_entries`` show what it holds.
_IDEM_CACHE = 512
_IDEM_CACHE_BYTES = 64 << 20


class WireServer:
    """The asyncio connection loop; subclasses bring what the ops need."""

    scheduler: BatchScheduler | None = None
    #: a :class:`~repro.store.TileStore` (local directory or gateway)
    store: Any = None
    #: cluster topology served on the ``shard_map`` op
    shard_map: dict | None = None

    def __init__(
        self, host: str, port: int, metrics: MetricsRegistry
    ) -> None:
        self.host = host
        self.port = port
        self.metrics = metrics
        self._server: asyncio.AbstractServer | None = None
        self._conns: set[asyncio.StreamWriter] = set()
        self._draining = False
        # request-id → Future[response frame]; in-flight entries dedup
        # concurrent replays, completed entries answer late ones.  An
        # entry costs the bytes of its response, nothing while in flight.
        self._idem = BoundedLRU(max_entries=_IDEM_CACHE, max_cost=_IDEM_CACHE_BYTES)
        self._replay_gauges()

    def _replay_gauges(self) -> None:
        self.metrics.set_gauges({
            "server.replay_bytes": self._idem.cost,
            "server.replay_entries": len(self._idem),
        })

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        # resolve the ephemeral port for clients/tests
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(
        self, *, drain: bool = True, deadline_s: float | None = None
    ) -> None:
        """Graceful shutdown: stop accepting, drain in-flight, bounded.

        New work ops on existing connections are refused the moment this
        is called (``"shutting-down"``); already-accepted jobs run to
        completion so every acked submission gets a real answer.  With
        ``drain=False`` (or once ``deadline_s`` expires) in-flight jobs
        are cancelled and their callers get an explicit failure instead
        of a hang.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._shutdown(0 if not drain else deadline_s)
        # Sever surviving connections: a stopped server must look *down*
        # to its peers (shard failover depends on this), not like a
        # zombie that keeps answering store reads on old sockets.
        for w in list(self._conns):
            w.close()

    async def _shutdown(self, deadline_s: float | None) -> None:
        """Release what the ops ran on (scheduler, shard clients)."""

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- what the ops ask of the server -----------------------------------

    async def blocking(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run one blocking store call off the event loop."""
        return await asyncio.to_thread(fn, *args, **kwargs)

    def ping(self) -> dict:
        return {"ok": True, "version": __version__}

    async def health(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "version": __version__,
        }

    # -- request handling ------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conns.add(writer)
        try:
            while True:
                try:
                    header, body, done = await self._read_request(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                except ServiceError as exc:
                    # malformed frame: where the next one starts is
                    # unknowable, so say why and hang up
                    writer.write(wire.refusal_frame("protocol", str(exc)))
                    await writer.drain()
                    break
                try:
                    response = await self._dispatch(header, body)
                finally:
                    done()
                writer.write(response)
                await writer.drain()
        except Exception:  # noqa: BLE001 - connection-scoped failure
            pass
        finally:
            self._conns.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[dict, Any, Callable[[], None]]:
        """One request as ``(header, body, done)``; ``done()`` runs once
        the response is built."""
        header, body = await wire.read_frame(reader)
        return header, body, lambda: None

    async def _dispatch(self, header: dict, body: Any) -> bytes:
        op = lookup(header)
        req_id = header.get("req_id")
        if (
            op is None
            or not op.idempotent
            or not isinstance(req_id, str)
            or not req_id
        ):
            return await self._answer(op, header, body)
        # At-most-once execution per request id.  A retry that lands
        # while the original is still running awaits the *same* future;
        # one that lands after completion replays the cached response
        # frame.  Either way the job executes exactly once — the client
        # may retry as aggressively as it likes.
        fut = self._idem.get(req_id)
        if fut is not None:
            self.metrics.incr("server.idem_hits")
            return await asyncio.shield(fut)
        fut = asyncio.get_running_loop().create_future()
        self._idem.put(req_id, fut)
        try:
            response = await self._answer(op, header, body)
        except BaseException as exc:
            self._idem.pop(req_id)  # do not cache a non-answer
            self._replay_gauges()
            if not fut.done():
                fut.set_exception(exc)
                fut.exception()  # consumed: avoid the never-retrieved log
            raise
        if not fut.done():
            fut.set_result(response)
            if self._idem.get(req_id) is fut:
                self._idem.put(req_id, fut, len(response))
        self._replay_gauges()
        return response

    async def _answer(self, op: Op | None, header: dict, body: Any) -> bytes:
        name = header.get("op")
        if op is None:
            return wire.pack({"ok": False, "error": f"unknown op {name!r}"})
        if op.needs is not None and getattr(self, op.needs) is None:
            return wire.refusal_frame(
                f"{op.needs}-not-configured",
                f"this server has no {op.needs} to run {name} on",
            )
        if self._draining and op.refused_while_draining:
            return wire.refusal_frame(
                "shutting-down", "server is draining; submit elsewhere"
            )
        try:
            return await op.handler(self, body, **op.parse(header))
        except QueueFullError as exc:
            return wire.refusal_frame(
                "queue-full", str(exc),
                queue_depth=self.scheduler.queue.depth,
            )
        except ReproError as exc:
            return wire.error_frame(exc, name, header.get("req_id", "-"))


class CompressionServer(WireServer):
    """The asyncio TCP server wrapping a :class:`BatchScheduler`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int | None = None,
        pool_kind: str = "process",
        queue_size: int = 128,
        max_retries: int = 2,
        hang_timeout_s: float | None = None,
        transport: str = "auto",
        batch_bytes: int = 0,
        store_root: str | None = None,
        shard_map: dict | None = None,
    ) -> None:
        self.scheduler = BatchScheduler(
            workers=workers,
            pool_kind=pool_kind,
            queue_size=queue_size,
            max_retries=max_retries,
            hang_timeout_s=hang_timeout_s,
            transport=transport,
            batch_bytes=batch_bytes,
        )
        super().__init__(host, port, self.scheduler.metrics)
        #: set when this server is one shard of a sharded store
        self.shard_map = shard_map
        if store_root is not None:
            from ..store import ArrayStore

            self.store = ArrayStore(store_root, metrics=self.metrics)

    async def start(self) -> None:
        self.scheduler.start()
        await super().start()

    async def _shutdown(self, deadline_s: float | None) -> None:
        await self.scheduler.stop(deadline_s=deadline_s)

    async def health(self) -> dict:
        s = self.scheduler
        return {
            **await super().health(),
            "queue_depth": s.queue.depth,
            "in_flight": s._in_flight,
            "workers": s.pool.size,
            "pool_restarts": s.pool.restarts,
            "transport": s.transport.name,
            "batch_bytes": s.batch_bytes,
            # names() lists the manifest directory and parses nothing:
            # a probe stays cheap on the loop and cannot fail on a
            # corrupt manifest (store_ls is where that surfaces, typed).
            "store": (
                "absent" if self.store is None
                else f"{len(self.store.names())} dataset(s)"
            ),
        }

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[dict, Any, Callable[[], None]]:
        """Read one request, routing large compress bodies socket→shm.

        The classic path copies a field three times before the worker
        sees it: ``readexactly`` joins chunks into ``bytes``,
        ``decode_field`` materialises an array, and the pool pickles it
        through a pipe.  When the scheduler runs the shm transport, a
        compress body streams chunk-by-chunk *directly into an arena
        segment* instead — one copy, after which the job's `FieldRef`
        crosses the pool by name.  ``body`` is then the adopted
        ``ndarray`` view and ``done()`` releases the server's segment
        lease once the response is built.
        """
        header, body_len = await wire.read_header(reader)
        arena = getattr(self.scheduler.transport, "arena", None)
        min_bytes = getattr(self.scheduler.transport, "min_bytes", 0)
        spec = None
        if (
            arena is not None
            and body_len >= max(min_bytes, 1)
            and sys.byteorder == "little"  # wire is LE; BE needs the copy
            and getattr(lookup(header), "ingest_to_arena", False)
        ):
            try:
                spec = wire.check_field(header, body_len)
            except ServiceError:
                # The header does not describe this body.  Read it the
                # classic way so the stream stays in sync; the handler
                # then refuses it with the same typed frame the pickle
                # transport answers.
                pass
        if spec is None:
            body = await reader.readexactly(body_len) if body_len else b""
            return header, body, lambda: None
        shape, dtype = spec
        name = arena.allocate(body_len)
        buf = arena.buffer(name, body_len)
        filled = 0
        try:
            while filled < body_len:
                chunk = await reader.read(min(body_len - filled, 1 << 20))
                if not chunk:
                    raise asyncio.IncompleteReadError(bytes(filled), body_len)
                buf[filled:filled + len(chunk)] = chunk
                filled += len(chunk)
        except BaseException:
            arena.release(name)
            raise
        view = arena.adopt_view(name, dtype, shape)
        return header, view, lambda: arena.release(name)


async def run_until_sigterm(server: WireServer, **stop_kwargs: Any) -> None:
    """Serve a started server until cancelled or SIGTERM, then stop it —
    so a supervisor's ordinary terminate takes the graceful path."""
    import signal

    stop_requested = asyncio.Event()
    loop = asyncio.get_running_loop()
    try:
        loop.add_signal_handler(signal.SIGTERM, stop_requested.set)
    except (NotImplementedError, RuntimeError):  # pragma: no cover - win
        pass
    try:
        forever = asyncio.ensure_future(server.serve_forever())
        waiter = asyncio.ensure_future(stop_requested.wait())
        await asyncio.wait(
            (forever, waiter), return_when=asyncio.FIRST_COMPLETED
        )
        forever.cancel()
        waiter.cancel()
        if stop_requested.is_set():
            print("wavesz service draining...", flush=True)
    except asyncio.CancelledError:  # pragma: no cover - SIGINT path
        pass
    finally:
        await server.stop(**stop_kwargs)


#: Freed heap a serving process keeps for its next request.  Every
#: field-sized temporary (codec work arrays, entropy streams, pickles,
#: received bodies) is allocated below it from the heap instead of a
#: fresh mapping, and the heap's free top is returned to the system only
#: past it: without it each request faults its temporaries in again.
#: Serving 1.6-2.3 MB fields, one worker still takes ~6 K faults per ten
#: requests at 16 MiB, and reads run 1-7 % faster at 64 MiB than at
#: 32 MiB (docs/PERF.md, "A served field is faulted in once").
_HEAP_KEEP_BYTES = 64 << 20


def _keep_freed_heap(bound: int = _HEAP_KEEP_BYTES) -> bool:
    """Have glibc's malloc keep up to ``bound`` bytes of freed heap in
    this process (and in every worker it forks later): allocations
    below ``bound`` come from the heap, and the heap's free top is
    returned once it reaches ``bound``.  False where there is no
    ``mallopt`` (not glibc) — the allocator is left as it is.

    Only the ``serve`` entry points call this: a program that embeds a
    server keeps its own allocator policy.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
    return all(mallopt(option, value) == 1 for option, value in (
        (m_mmap_threshold, bound),
        (m_trim_threshold, bound),
        (m_top_pad, bound // 4),
    ))


#: How long ``serve`` lets in-flight jobs finish after SIGTERM before it
#: fails the stragglers: a supervisor follows its terminate with a kill
#: after a grace period (30 s is the common default), and a drain that
#: ends on its own first answers every waiter instead of dropping them.
_DRAIN_DEADLINE_S = 30.0


async def serve(host: str = "127.0.0.1", port: int = 8123, **kwargs: Any) -> None:
    """Start a server and run until cancelled (the ``wavesz serve`` body).

    SIGTERM triggers the graceful path: stop accepting, drain in-flight
    jobs for up to ``_DRAIN_DEADLINE_S``, then exit — so a supervisor's
    ordinary terminate never drops an acked job.
    """
    _keep_freed_heap()  # before the pool forks: the workers inherit it
    server = CompressionServer(host, port, **kwargs)
    await server.start()
    store_note = (
        f", store at {server.store.root}" if server.store is not None else ""
    )
    batch_note = (
        f", batch<{server.scheduler.batch_bytes}B"
        if server.scheduler.batch_bytes else ""
    )
    print(f"wavesz service listening on {server.host}:{server.port} "
          f"({server.scheduler.pool.kind} pool, "
          f"{server.scheduler.pool.size} workers, "
          f"{server.scheduler.transport.name} transport{batch_note}, "
          f"queue {server.scheduler.queue.maxsize}{store_note})", flush=True)
    await run_until_sigterm(server, drain=True, deadline_s=_DRAIN_DEADLINE_S)
