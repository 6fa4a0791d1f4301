"""``svc_small_jobs`` and ``svc_large_fields``: ``wavesz serve`` over TCP.

Both drive one ``wavesz serve --port 0 --workers 2`` subprocess with the
shipped defaults (process pool, ``auto`` transport, 32 KB micro-batch
threshold) through ``ServiceClient``.  They are mirror images: small jobs
sit below the 64 KB shared-memory threshold, so the arena idles and the
request path (framing, queue, batching, dispatch, pickle) is most of a
request; large fields go through the arena and the band fan-out while
queue and batching idle.

**Loops.**  ``svc_small_jobs`` runs closed-loop segments on 2 connections
(each sends its next request when the previous one returns).  Its traced
run adds an open loop: seeded Poisson arrivals at a fixed 80 req/s on the
same two connections, each request timed from when it was *due*, the
generator's lateness reported beside it.  ``svc_large_fields`` is one
closed-loop connection, a batch caller.  ``nproc`` is 2, so there is one
generator process with at most two client threads.  Client threads
record raw times; the main thread ticks the calibration kernel while
they are idle, before and after each segment, and scales the segment.

**Ladder** (traced run).  The same compress request is timed at four
successively deeper public entry points; a layer's self time is the
difference between adjacent rungs:

    rung 3  ServiceClient.compress over TCP          -> service.server
    rung 2  in-process BatchScheduler, CLI settings  -> service.scheduler
    rung 1  WorkerPool("process", 2).submit(run_job) -> service.workers
    rung 0  get_codec(...).compress                  -> service.codec
"""

from __future__ import annotations

import asyncio
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.codec.registry import get_codec
from repro.parallel import plan_bands, tile_compress
from repro.service import (
    BatchScheduler,
    PickleTransport,
    ServiceClient,
    ShmArena,
    ShmTransport,
    WorkerPool,
    make_job,
)
from repro.service.workers import run_job
from repro.streams import decompress_auto

import checks
import inputs
import procs
from harness import Ctx, staged
from spec import EB, MODE
from timing import (
    CAL,
    OP_ERRORS,
    Ledger,
    ReqClass,
    by_pass,
    class_time,
    clock,
    interleave,
    latency_p50,
    median,
    overhead_pct,
    passes,
    rate_mb_s,
    run_alternating,
    run_classes,
    tail,
)

SERVE_ARGS = ("--workers", "2")
#: the settings ``wavesz serve`` hands its scheduler (cli.py defaults)
CLI_SCHEDULER = dict(
    workers=2, pool_kind="process", queue_size=128, max_retries=2,
    transport="auto", batch_bytes=32768,
)


@dataclass
class Request:
    """One compress request class and its library reference."""

    name: str
    data: np.ndarray
    codec: str
    tiles: int = 1
    priority: int = 0
    payload: bytes = b""  # the library's payload for this request
    eb_abs: float = 0.0
    decoded: np.ndarray | None = None  # the library's decode of it

    def reference(self) -> None:
        codec = get_codec(self.codec)
        if self.tiles > 1:
            self.payload = tile_compress(
                codec, self.data, EB, MODE, n_tiles=self.tiles
            ).payload
            self.eb_abs = plan_bands(self.data, EB, MODE, self.tiles)[0].absolute
        else:
            cf = codec.compress(self.data, EB, MODE)
            self.payload, self.eb_abs = cf.payload, cf.bound.absolute
        self.decoded = decompress_auto(self.payload)
        checks.within_bound(self.data, self.decoded, self.eb_abs, self.name)

    def job(self):
        return make_job(self.codec, self.data, eb=EB, mode=MODE,
                        priority=self.priority, n_tiles=self.tiles)

    def via(self, client: ServiceClient) -> tuple[bytes, dict]:
        return client.compress(
            self.data, self.codec, EB, MODE, priority=self.priority,
            tiles=self.tiles,
        )

    def check_payload(self, got: bytes) -> None:
        checks.same_bytes(got, self.payload, self.name)

    def check_decoded(self, got: np.ndarray) -> None:
        checks.same_array(got, self.decoded, self.name)


@contextmanager
def _service(ctx: Ctx, make_requests: Callable[[], list[Request]],
             warm: Callable[[ServiceClient, list[Request]], None]):
    """The stage: inputs, a listening server, both workers warm."""
    requests = make_requests()
    with procs.servers(ctx.workdir, {"serve": SERVE_ARGS}) as up:
        server = up["serve"]
        with ServiceClient(server.host, server.port) as client:
            client.ping()
            warm(client, requests)
        yield server, requests


def _connect(server: procs.Server, **kw: Any) -> ServiceClient:
    return ServiceClient(server.host, server.port, **kw)


def _stats_delta(before: dict, after: dict) -> dict[str, float]:
    def ev(s: dict, k: str) -> float:
        return float(s["events"].get(k, 0))

    return {
        "service.queue.high_water": after["queue"]["high_water"],
        "service.queue.rejected":
            after["totals"]["rejected"] - before["totals"]["rejected"],
        "service.scheduler.retried":
            after["totals"]["retried"] - before["totals"]["retried"],
        "service.scheduler.tile_fanouts":
            ev(after, "scheduler.tile_fanouts") - ev(before, "scheduler.tile_fanouts"),
        "service.scheduler.batch_dispatches":
            ev(after, "batch.dispatches") - ev(before, "batch.dispatches"),
        "service.scheduler.batch_jobs":
            ev(after, "batch.jobs") - ev(before, "batch.jobs"),
        "service.scheduler.batch_occupancy":
            after["gauges"].get("batch.occupancy", 0.0),
        "service.shm.resident_bytes":
            after["gauges"].get("shm.resident_bytes", 0.0),
    }


# -- the call ladder ---------------------------------------------------------------

RUNGS = ("service.codec", "service.workers", "service.scheduler", "service.server")


def _ladder(ctx: Ctx, server: procs.Server, requests: Sequence[Request],
            budget_s: float) -> dict[str, dict[str, list[float]]]:
    """Time every request at all four rungs, rep-major; samples by rung."""
    samples = {r: {q.name: [] for q in requests} for r in RUNGS}
    server_ms: list[float] = []

    async def climb() -> None:
        pool = WorkerPool(2, kind="process")
        sched = BatchScheduler(**CLI_SCHEDULER)
        client = _connect(server)
        codecs = {q.codec: get_codec(q.codec) for q in requests}

        async def rung2(q: Request) -> bytes:
            handle = await sched.submit(q.job())
            return (await sched.wait(handle)).output

        def rung0(q: Request) -> bytes:
            if q.tiles > 1:
                return tile_compress(codecs[q.codec], q.data, EB, MODE,
                                     n_tiles=q.tiles).payload
            return codecs[q.codec].compress(q.data, EB, MODE).payload

        try:
            async with sched:
                for q in requests[:2]:  # both pools fork before timing
                    pool.submit(run_job, q.job()).result()
                    await rung2(q)
                for rep in passes(budget_s, **ctx.reps):
                    for q in requests:
                        rid = f"{q.name}#{rep}"
                        outs: list[bytes] = []
                        CAL.maybe_tick()
                        ctx.ledger.attempted += 4
                        try:
                            t0 = clock()
                            payload, resp = q.via(client)
                            t1 = clock()
                            outs.append(payload)
                            server_ms.append(CAL.norm(float(resp["latency_s"])) * 1e3)
                            t2 = clock()
                            outs.append(await rung2(q))
                            t3 = clock()
                            outs.append(pool.submit(run_job, q.job()).result().payload)
                            t4 = clock()
                            outs.append(rung0(q))
                            t5 = clock()
                            for out in outs:
                                q.check_payload(out)
                        except OP_ERRORS as exc:
                            ctx.ledger.fail(rid, exc)
                            continue
                        for rung, a, b, parent in (
                            ("service.server", t0, t1, None),
                            ("service.scheduler", t2, t3, "service.server"),
                            ("service.workers", t3, t4, "service.scheduler"),
                            ("service.codec", t4, t5, "service.workers"),
                        ):
                            samples[rung][q.name].append(CAL.norm(b - a, b, f"{rung}:{q.name}"))
                            ctx.tracer.add(rung, rid, parent, a, b)
        finally:
            client.close()
            pool.shutdown()

    asyncio.run(climb())
    ctx.put("service.scheduler.job_ms_p50", median(server_ms))
    return samples


def _report_ladder(ctx: Ctx, requests: Sequence[Request],
                   samples: dict[str, dict[str, list[float]]]) -> None:
    """Mean over request classes of each rung's self time (class times)."""
    n = len(requests)

    def mean_ms(rung: str) -> float:
        return sum(class_time(samples[rung][q.name]) for q in requests) / n * 1e3

    rung_ms = [mean_ms(r) for r in RUNGS]
    selfs = [rung_ms[0]] + [b - a for a, b in zip(rung_ms, rung_ms[1:])]
    for rung, self_ms in zip(RUNGS, selfs):
        ctx.put(f"{rung}.self_ms", self_ms)
    tracked = sum(max(0.0, s) for s in selfs)
    client_ms = rung_ms[-1]
    ctx.put("service.ladder_untracked_ms", client_ms - tracked)
    ctx.put("service.ladder_closure_pct",
            100.0 * tracked / client_ms if client_ms else 0.0)
    ctx.notes["ladder_ms"] = {r: round(v, 3) for r, v in zip(RUNGS, rung_ms)}
    ctx.notes["K"] = min(len(samples[RUNGS[-1]][q.name]) for q in requests)


def _transport_isolated(ctx: Ctx, request: Request) -> None:
    """What each transport does to move one field to a worker, alone:
    ``encode_job``, the pickle the executor pipe would carry, release."""
    if not ShmArena.available():
        return
    job = request.job()
    mb = request.data.nbytes / 1e6
    shm = ShmTransport()
    try:
        for name, transport in (("encode", shm), ("pickle", PickleTransport())):
            def ship() -> None:
                env = transport.encode_job(job)
                try:
                    pickle.loads(pickle.dumps((env.fn, env.args)))
                finally:
                    env.release()

            ship()
            xs = []
            for _ in range(3 if ctx.quick else 15):
                CAL.maybe_tick()
                t0 = clock()
                ship()
                xs.append(CAL.norm(clock() - t0))
            ctx.put(f"service.shm.{name}_ms_per_mb", class_time(xs) * 1e3 / mb)
    finally:
        shm.close()


# -- svc_large_fields --------------------------------------------------------------


def _large_requests(plan: dict) -> list[Request]:
    return [
        Request(label, inputs.Recipe(**plan["recipes"][label]).apply(
            inputs.base_field(ds, f, sc)), codec, tiles)
        for label, ds, f, sc, codec, tiles in inputs.LARGE_CLASSES
    ]


def _warm_large(client: ServiceClient, requests: list[Request]) -> None:
    # the tiled dp request fans out, so one call starts both workers
    requests[0].via(client)


def run_large(ctx: Ctx) -> None:
    plan = inputs.large_plan(ctx.seed)
    with staged(ctx, lambda: _service(
        ctx, lambda: _large_requests(plan), _warm_large
    )) as (server, requests):
        for q in requests:
            q.reference()
        if ctx.trace:
            _large_traced(ctx, server, requests)
        else:
            _large_end_to_end(ctx, server, requests)


def _large_classes(client: ServiceClient, requests: list[Request]):
    def compress(q: Request):
        return ReqClass(f"compress:{q.name}", lambda: q.via(client)[0],
                        q.check_payload, q.data.nbytes)

    def decompress(q: Request):
        return ReqClass(f"decompress:{q.name}",
                        lambda: client.decompress(q.payload),
                        q.check_decoded, q.data.nbytes)

    return [compress(q) for q in requests], [decompress(q) for q in requests]


def _large_end_to_end(ctx: Ctx, server: procs.Server, requests: list[Request]) -> None:
    with _connect(server) as client:
        writes, reads = _large_classes(client, requests)
        interleaved = interleave(writes, reads)
        samples = run_classes(interleaved, ctx.seconds, ctx.ledger, **ctx.reps)
    calls = [s for c in writes for s in samples[c.name]]
    ctx.put("write_mb_s", rate_mb_s(writes, samples))
    ctx.put("read_mb_s", rate_mb_s(reads, samples))
    ctx.put("latency_p50_ms", latency_p50(by_pass(writes, samples)) * 1e3)
    ctx.put("ratio", sum(q.data.nbytes for q in requests)
            / sum(len(q.payload) for q in requests))
    ctx.note_samples("compress call", calls)
    ctx.notes["K"] = min(len(samples[c.name]) for c in writes)


def _large_traced(ctx: Ctx, server: procs.Server, requests: list[Request]) -> None:
    with _connect(server) as client:
        before = client.stats()
        writes, reads = _large_classes(client, requests)
        interleaved = interleave(writes, reads)
        plain, spanned = run_alternating(
            interleaved, ctx.share(0.4), ctx.ledger, ctx.tracer,
            "service.client", quick=ctx.quick,
        )
        ctx.put("trace.overhead_pct", overhead_pct(interleaved, plain, spanned))
        calls = [s for c in writes for s in plain[c.name] + spanned[c.name]]
        ctx.put("service.client.latency_tail_ms", tail(calls)[1] * 1e3)
        _report_ladder(ctx, requests, _ladder(ctx, server, requests, ctx.share(0.5)))
        for name, value in _stats_delta(before, client.stats()).items():
            ctx.put(name, value)
    _transport_isolated(ctx, requests[1])


# -- svc_small_jobs ----------------------------------------------------------------


def _small_requests(plan: dict) -> list[Request]:
    return [
        Request(f"job{i:02d}.{plan['codecs'][i]}", data, plan["codecs"][i],
                priority=plan["priorities"][i])
        for i, data in enumerate(inputs.small_fields(plan))
    ]


def _warm_small(client: ServiceClient, requests: list[Request]) -> None:
    for q in requests[:8]:
        q.via(client)


@dataclass
class _Lane:
    """What one client thread did: raw latencies, its share of the ledger.
    The main thread calibrates them once the threads are idle again."""

    latencies: list[float]
    ledger: Ledger


def _closed_lane(client: ServiceClient, requests: Sequence[Request],
                 op: str) -> _Lane:
    lane = _Lane([], Ledger())
    for q in requests:
        lane.ledger.attempted += 1
        try:
            t0 = clock()
            if op == "compress":
                out = q.via(client)[0]
                t1 = clock()
                q.check_payload(out)
            else:
                out = client.decompress(q.payload)
                t1 = clock()
                q.check_decoded(out)
        except OP_ERRORS as exc:
            lane.ledger.fail(q.name, exc)
            continue
        lane.latencies.append(t1 - t0)
    return lane


def _merge(ledger: Ledger, lanes: Sequence[_Lane]) -> list[float]:
    for lane in lanes:
        ledger.attempted += lane.ledger.attempted
        ledger.failed += lane.ledger.failed
        ledger.bound_violations += lane.ledger.bound_violations
        ledger.reasons += lane.ledger.reasons[:8 - len(ledger.reasons)]
    return [s for lane in lanes for s in lane.latencies]


def _closed_segments(ctx: Ctx, clients: Sequence[ServiceClient],
                     ordered: Sequence[Request], op: str, budget_s: float,
                     span: str | None = None) -> tuple[list[float], list[list[float]]]:
    """Closed loop: each segment is one pass over all jobs, split between
    the connections.  Returns (segment walls, request latencies by
    segment).  With
    ``span``, every second segment is recorded as a span (walls alternate
    plain, recorded, plain, ...)."""
    shares = [ordered[i::len(clients)] for i in range(len(clients))]
    walls: list[float] = []
    latencies: list[list[float]] = []
    with ThreadPoolExecutor(len(clients)) as threads:
        CAL.tick()
        for _ in passes(budget_s, **ctx.reps):
            failed = ctx.ledger.failed
            t0 = clock()
            lanes = [f.result() for f in [
                threads.submit(_closed_lane, c, share, op)
                for c, share in zip(clients, shares)
            ]]
            t1 = clock()
            CAL.tick()
            CAL.tick()
            factor = CAL.window_factor(t0, t1)
            got = _merge(ctx.ledger, lanes)
            if ctx.ledger.failed == failed:
                latencies.append([
                    CAL.norm(s, t1, f"closed.{op}", factor) for s in got])
                walls.append(CAL.norm(t1 - t0, t1, f"segment.{op}", factor))
            if span and len(walls) % 2 == 0:
                ctx.tracer.add(span, f"{op}-segment#{len(walls)}", None, t0, t1)
            if ctx.ledger.failed > 64:
                break  # a dead server: stop sending, report
    return walls, latencies


def _open_loop(ctx: Ctx, clients: Sequence[ServiceClient],
               requests: Sequence[Request], plan: dict
               ) -> tuple[list[float], list[float], float]:
    """Open loop at a fixed rate.  Each request is timed from when it was
    due; returns (latencies, generator lateness, achieved requests/s)."""
    due = plan["open_due_s"]
    jobs = plan["open_jobs"]
    if ctx.quick:
        due, jobs = due[:40], jobs[:40]
    lock = threading.Lock()
    cursor = [0]
    lateness: list[float] = []
    origin = clock() + 0.06

    def lane(client: ServiceClient) -> _Lane:
        out = _Lane([], Ledger())
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(due):
                return out
            q = requests[jobs[i]]
            t_due = origin + due[i]
            wait = t_due - clock()
            if wait > 0:
                threading.Event().wait(wait)
            out.ledger.attempted += 1
            try:
                t_send = clock()
                payload = q.via(client)[0]
                t_done = clock()
                q.check_payload(payload)
            except OP_ERRORS as exc:
                out.ledger.fail(q.name, exc)
                continue
            out.latencies.append(t_done - t_due)
            with lock:
                lateness.append(t_send - t_due)
            ctx.tracer.add("service.client.open", f"open#{i}", None, t_due, t_done)

    for _ in range(3):
        CAL.tick()
    with ThreadPoolExecutor(len(clients)) as threads:
        lanes = [f.result() for f in [threads.submit(lane, c) for c in clients]]
    end = clock()
    wall = end - origin
    for _ in range(3):
        CAL.tick()
    factor = CAL.window_factor(origin, end)
    latencies = [CAL.norm(s, end, "open", factor)
                 for s in _merge(ctx.ledger, lanes)]
    return latencies, lateness, len(latencies) / wall if wall > 0 else 0.0


def run_small(ctx: Ctx) -> None:
    plan = inputs.small_plan(ctx.seed, inputs.open_seconds(ctx.seconds))
    with staged(ctx, lambda: _service(
        ctx, lambda: _small_requests(plan), _warm_small
    )) as (server, requests):
        for q in requests:
            q.reference()
        ordered = [requests[i] for i in plan["order"]]
        if ctx.trace:
            _small_traced(ctx, server, requests, ordered, plan)
        else:
            _small_end_to_end(ctx, server, requests, ordered)


def _segment_mb_s(requests: Sequence[Request], walls: Sequence[float]) -> float:
    wall = class_time(walls)
    return sum(q.data.nbytes for q in requests) / 1e6 / wall if wall else 0.0


def _small_end_to_end(ctx: Ctx, server: procs.Server, requests: list[Request],
                      ordered: list[Request]) -> None:
    clients = [_connect(server), _connect(server)]
    try:
        c_walls, c_lat = _closed_segments(
            ctx, clients, ordered, "compress", ctx.share(0.55))
        d_walls, _ = _closed_segments(
            ctx, clients, ordered, "decompress", ctx.share(0.4))
    finally:
        for c in clients:
            c.close()
    ctx.put("write_mb_s", _segment_mb_s(requests, c_walls))
    ctx.put("read_mb_s", _segment_mb_s(requests, d_walls))
    ctx.put("latency_p50_ms", latency_p50(c_lat) * 1e3)
    ctx.put("ratio", sum(q.data.nbytes for q in requests)
            / sum(len(q.payload) for q in requests))
    ctx.note_samples("closed compress request", [s for seg in c_lat for s in seg])
    ctx.note_samples("closed compress segment", c_walls, 1.0, "s")
    ctx.notes["K"] = len(c_walls)


def _small_traced(ctx: Ctx, server: procs.Server, requests: list[Request],
                  ordered: list[Request], plan: dict) -> None:
    wire = procs.WireCounts()
    clients = [_connect(server, socket_factory=wire), _connect(server)]
    try:
        before = clients[1].stats()
        sent0 = wire.snapshot()
        walls, lat = _closed_segments(
            ctx, clients, ordered, "compress", ctx.share(0.25),
            span="service.client.closed")
        lat = [s for seg in lat for s in seg]
        _, frames, sent, received = (
            b - a for a, b in zip(sent0, wire.snapshot()))
        open_lat, lateness, rps = _open_loop(ctx, clients, requests, plan)
        pings = []
        for _ in range(20 if ctx.quick else 200):
            CAL.maybe_tick()
            t0 = clock()
            ctx.ledger.attempt("ping", clients[1].ping)
            pings.append(CAL.norm(clock() - t0))
        after = clients[1].stats()
    finally:
        for c in clients:
            c.close()
    ctx.put("trace.overhead_pct",
            100.0 * (class_time(walls[1::2]) / class_time(walls[0::2]) - 1.0))
    ctx.put("service.client.jobs_per_s", len(ordered) / class_time(walls))
    ctx.put("service.client.closed_latency_p50_ms", median(lat) * 1e3)
    ctx.put("service.client.latency_tail_ms", tail(lat)[1] * 1e3)
    ctx.put("service.client.open_latency_p50_ms", median(open_lat) * 1e3)
    ctx.put("service.client.open_lateness_ms_p50", median(lateness) * 1e3)
    ctx.put("service.client.open_achieved_rps", rps)
    ctx.put("service.server.ping_rtt_ms", median(pings) * 1e3)
    ctx.put("service.server.wire_bytes_per_request",
            (sent + received) / frames if frames else 0.0)
    for name, value in _stats_delta(before, after).items():
        ctx.put(name, value)
    ctx.note_samples("closed compress request", lat)
    ctx.note_samples("open request from due time", open_lat)

    subset = ordered[:8]
    _report_ladder(ctx, subset, _ladder(ctx, server, subset, ctx.share(0.35)))
