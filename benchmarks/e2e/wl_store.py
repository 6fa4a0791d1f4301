"""``store_local`` and ``store_sharded``: one op schedule, two ways in.

Eight CESM fields (18.7 MB raw), ``wavesz-dp``, 8 tiles each.  The same
seeded schedule runs against an ``ArrayStore`` on disk and against three
``wavesz serve --store`` shard servers behind an in-process
``ShardGateway`` (R=2), so the difference between the two workloads is
what the gateway costs: a store change must move both, a gateway change
only ``store_sharded``.

Phases: ``put`` (a distinct version of every field per round — writes
beside reads), ``slice_cold`` (fresh handle per op; 40 seeded windows,
each spanning 2 of 8 tiles), ``slice_warm`` (one handle, default 64 MB
cache > working set), ``read_full`` (fresh handle per op).  "Cold" means
a new handle with an empty tile cache and no open connection; files
stay in the OS page cache, so no latency here is a disk's.  The traced
runs add ``thrash`` (4 MB cache < working set, skewed windows), an
identical re-put (dedup) and ``one_down`` (one shard stopped, every cold
slice still bit-exact).

Every read is compared bit for bit with the library's own decode of the
same field version (``compress_field_tiles`` + codec ``decompress``), so
the two workloads agree with each other by transitivity.

**Ladders** (traced runs).  ``store_local``: the library calls a put and
a read are made of (``compress_field_tiles``; ``decode_tile_blob`` +
``assemble_tiles`` on blobs already in memory) against ``ArrayStore.put``
/ ``read``.  ``store_sharded``: the same op on an ``ArrayStore``, through
a 1-shard R=1 gateway, through the 3-shard R=2 gateway.  A layer's self
time is the difference between adjacent rungs.
"""

from __future__ import annotations

import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.codec.registry import get_codec
from repro.service import MetricsRegistry
from repro.shard import ShardGateway, ShardMap
from repro.store import (
    ArrayStore,
    assemble_tiles,
    compress_field_tiles,
    decode_tile_blob,
)
from repro.tiling import TileGrid

import checks
import inputs
import procs
from harness import Ctx, staged
from spec import EB, MODE
from timing import (
    CAL,
    CheckFailure,
    ReqClass,
    class_time,
    clock,
    interleave,
    median,
    overhead_pct,
    quiet_latency,
    rate_mb_s,
    run_alternating,
    run_classes,
    tail,
)

CODEC = inputs.STORE_CODEC
TILES = inputs.STORE_TILES
SHARD_ARGS = ("--pool", "thread", "--workers", "1")


class Backend:
    """How a workload reaches its store: fresh handles, bytes on disk."""

    def __init__(self, open_handle: Callable[..., Any], roots: Sequence[Path]) -> None:
        self.open = open_handle  # (**kw) -> handle with put/read/read_slice
        self.roots = roots

    def disk_bytes(self) -> int:
        return sum(
            p.stat().st_size for root in self.roots
            for p in root.rglob("*") if p.is_file()
        )

    @staticmethod
    def close(handle: Any) -> None:
        close = getattr(handle, "close", None)
        if close is not None:
            close()


def local_backend(root: Path, **fixed: Any) -> Backend:
    return Backend(lambda **kw: ArrayStore(root, **fixed, **kw), [root])


def gateway_backend(servers: Sequence[procs.Server], roots: Sequence[Path],
                    replicas: int, **fixed: Any) -> Backend:
    shard_map = ShardMap.from_addresses(
        [s.address for s in servers], replicas=replicas
    )
    return Backend(lambda **kw: ShardGateway(shard_map, **fixed, **kw), roots)


class Dataset:
    """The fields, their current versions and the library's decode of them."""

    def __init__(self, plan: dict, bases: dict[str, np.ndarray] | None = None) -> None:
        self.plan = plan
        self.bases = bases if bases is not None else inputs.store_bases()
        self.names = list(inputs.CESM_FIELDS)
        self.version = dict.fromkeys(self.names, -1)
        self._expected: dict[str, np.ndarray] = {}

    def narrow(self, n_fields: int) -> None:
        """Keep the first ``n_fields`` fields and the windows on them (the
        traced runs spend their time on rungs, not on breadth)."""
        self.names = self.names[:n_fields]
        self.plan = {
            **self.plan,
            "windows": [w for w in self.plan["windows"] if w["field"] in self.names],
            "thrash": [w for w in self.plan["thrash"] if w["field"] in self.names],
        }

    @property
    def nbytes(self) -> int:
        return sum(self.bases[n].nbytes for n in self.names)

    def variant(self, name: str, version: int) -> np.ndarray:
        recipe = self.plan["versions"][version % len(self.plan["versions"])][name]
        return inputs.Recipe(**recipe).apply(self.bases[name])

    def expected(self, name: str) -> np.ndarray:
        """The library's decode of the version last put under ``name``."""
        if name not in self._expected:
            data = self.variant(name, self.version[name])
            manifest, payloads = compress_field_tiles(
                data, CODEC, EB, MODE, n_tiles=TILES
            )
            codec = get_codec(CODEC)
            out = np.concatenate(
                [codec.decompress(payloads[d]) for d in manifest["tiles"]]
            )
            checks.within_bound(data, out, manifest["eb_abs"], name)
            self._expected[name] = out
        return self._expected[name]

    def put_classes(self, handle: Any, prefix: str = "put") -> list[ReqClass]:
        """One class per field; every sample puts a new version."""
        staged_data: dict[str, np.ndarray] = {}

        def make(name: str) -> ReqClass:
            def before() -> None:
                self.version[name] += 1
                self._expected.pop(name, None)
                staged_data[name] = self.variant(name, self.version[name])

            def check(result: Any) -> None:
                data = staged_data[name]
                if (result.original_bytes != data.nbytes
                        or len(result.tile_digests) != TILES
                        or getattr(result, "degraded", False)):
                    raise CheckFailure(f"put {name}: unexpected ack {result}")

            return ReqClass(
                f"{prefix}:{name}",
                lambda: handle.put(name, staged_data[name], CODEC, EB, MODE,
                                   n_tiles=TILES),
                check, self.bases[name].nbytes, before,
            )

        return [make(n) for n in self.names]


class Cold:
    """A timed call that opens a fresh handle and runs ``op`` on it.

    The handle stays open past the timed region; :meth:`settle` (the
    class's untimed ``before`` hook) inspects and closes it.
    """

    def __init__(self, backend: Backend, op: Callable[[Any], Any],
                 after: Callable[[Any], None] | None = None) -> None:
        self.backend, self.op, self.after = backend, op, after
        self.held: list[Any] = []

    def __call__(self) -> Any:
        handle = self.backend.open()
        self.held.append(handle)
        return self.op(handle)

    def settle(self) -> None:
        while self.held:
            handle = self.held.pop()
            if self.after is not None:
                self.after(handle)
            self.backend.close(handle)


def slice_classes(ds: Dataset, windows: Sequence[dict], prefix: str,
                  backend: Backend | None = None, handle: Any = None,
                  after: Callable[[Any], None] | None = None) -> list[ReqClass]:
    """One class per window: cold through ``backend``, warm on ``handle``."""
    classes = []
    for i, w in enumerate(windows):
        name, window = w["field"], inputs.window_slices(w)

        def check(result: Any, name=name, window=window) -> None:
            checks.same_array(result.data, ds.expected(name)[window],
                              f"slice {name}[{window[0].start}:{window[0].stop}]")

        before = None
        if backend is not None:
            call = Cold(backend, lambda h, n=name, s=window: h.read_slice(n, s), after)
            before = call.settle
        else:
            call = (lambda n=name, s=window: handle.read_slice(n, s))
        nbytes = (window[0].stop - window[0].start) * (window[1].stop - window[1].start) * 4
        classes.append(ReqClass(f"{prefix}:{i:02d}", call, check, nbytes, before))
    return classes


def read_classes(ds: Dataset, backend: Backend, prefix: str = "read") -> list[ReqClass]:
    classes = []
    for name in ds.names:
        def check(result: Any, name=name) -> None:
            checks.same_array(result.data, ds.expected(name), f"read {name}")

        call = Cold(backend, lambda h, n=name: h.read(n))
        classes.append(ReqClass(f"{prefix}:{name}", call, check,
                                ds.bases[name].nbytes, call.settle))
    return classes


def _settle(classes: Sequence[ReqClass]) -> None:
    for c in classes:
        if c.before is not None:
            c.before()


def _latencies(classes: Sequence[ReqClass], samples: dict[str, list[float]]) -> list[float]:
    return [s for c in classes for s in samples[c.name]]


# -- the shared end-to-end schedule ---------------------------------------------------


def _end_to_end(ctx: Ctx, ds: Dataset, backend: Backend) -> None:
    writer = backend.open()
    try:
        puts = ds.put_classes(writer)
        first = run_classes(puts, 0.0, ctx.ledger, min_reps=1, max_reps=1)
        kept = backend.disk_bytes()  # exactly one version of every field
        rest = run_classes(
            puts, ctx.share(0.2), ctx.ledger, min_reps=1,
            max_reps=1 if ctx.quick else len(ds.plan["versions"]) - 1,
        )
        put_samples = {k: first[k] + rest[k] for k in first}
    finally:
        backend.close(writer)
    for name in ds.names:
        ds.expected(name)  # the reference decode is not the store's time

    # Warm slices run as a short burst after every pass of the cold slices
    # and the full reads (about twenty bursts over the second half of the
    # run), so that their passes do not all see the one state the box is in
    # for two seconds.
    windows = ds.plan["windows"]
    reader = backend.open()
    try:
        warm = slice_classes(ds, windows, "slice_warm", handle=reader)
        run_classes(warm, 0.0, ctx.ledger, min_reps=1, max_reps=1)  # fill cache
        warm_samples: dict[str, list[float]] = {c.name: [] for c in warm}

        def warm_burst() -> None:
            got = run_classes(warm, ctx.share(0.012), ctx.ledger, min_reps=1,
                              max_reps=1 if ctx.quick else 10)
            for name, xs in got.items():
                warm_samples[name] += xs

        cold = slice_classes(ds, windows, "slice_cold", backend=backend)
        cold_samples = run_classes(cold, ctx.share(0.135), ctx.ledger, min_reps=1,
                                   max_reps=1 if ctx.quick else None,
                                   between=warm_burst)
        _settle(cold)
        reads = read_classes(ds, backend)
        read_samples = run_classes(reads, ctx.share(0.37), ctx.ledger, **ctx.reps,
                                   between=warm_burst)
        _settle(reads)
    finally:
        backend.close(reader)

    warm_lat = _latencies(warm, warm_samples)
    cold_lat = _latencies(cold, cold_samples)
    ctx.put("write_mb_s", rate_mb_s(puts, put_samples))
    ctx.put("read_mb_s", rate_mb_s(reads, read_samples))
    ctx.put("latency_p50_ms", quiet_latency(warm, warm_samples) * 1e3)
    ctx.put("ratio", ds.nbytes / kept if kept else 0.0)
    ctx.note_samples("put", _latencies(puts, put_samples))
    ctx.note_samples("slice_cold", cold_lat)
    ctx.note_samples("slice_warm", warm_lat)
    ctx.note_samples("read_full", _latencies(reads, read_samples))
    ctx.notes["K"] = {
        "put": min(len(put_samples[c.name]) for c in puts),
        "slice_cold": min(len(cold_samples[c.name]) for c in cold),
        "slice_warm": min(len(warm_samples[c.name]) for c in warm),
        "read_full": min(len(read_samples[c.name]) for c in reads),
    }


# -- store_local ----------------------------------------------------------------------


@contextmanager
def _local_stage(ctx: Ctx, plan: dict) -> Iterator[tuple[Dataset, Path]]:
    root = ctx.workdir / "local"
    shutil.rmtree(root, ignore_errors=True)
    yield Dataset(plan), root


def run_local(ctx: Ctx) -> None:
    plan = inputs.store_plan(ctx.seed)
    with staged(ctx, lambda: _local_stage(ctx, plan)) as (ds, root):
        if ctx.trace:
            _local_traced(ctx, ds, root)
        else:
            _end_to_end(ctx, ds, local_backend(root))


def _mean_ms(classes: Sequence[ReqClass], samples: dict[str, list[float]]) -> float:
    """Mean over request classes of the class time, in ms."""
    meds = [class_time(samples[c.name]) for c in classes if samples[c.name]]
    return sum(meds) / len(meds) * 1e3 if meds else 0.0


def _closure(rungs_ms: Sequence[float]) -> float:
    """Σ non-negative self times as a share of the top rung."""
    selfs = [rungs_ms[0]] + [b - a for a, b in zip(rungs_ms, rungs_ms[1:])]
    top = rungs_ms[-1]
    return 100.0 * sum(max(0.0, s) for s in selfs) / top if top else 0.0


def _library_put_classes(ds: Dataset) -> list[ReqClass]:
    """Rung 0 of a put: the tile compression alone, same versions."""
    def make(name: str) -> ReqClass:
        def check(out: Any) -> None:
            if len(out[0]["tiles"]) != TILES:
                raise CheckFailure(f"compress_field_tiles {name}: {len(out[0]['tiles'])} tiles")

        return ReqClass(
            f"lib_put:{name}",
            lambda: compress_field_tiles(
                ds.variant(name, ds.version[name] + 1), CODEC, EB, MODE,
                n_tiles=TILES),
            check, ds.bases[name].nbytes,
        )
    return [make(n) for n in ds.names]


def _library_read_classes(ds: Dataset, store: ArrayStore) -> list[ReqClass]:
    """Rung 0 of a full read: decode + assemble, blobs already in memory."""
    classes = []
    for name in ds.names:
        m = store.manifest(name)
        grid = TileGrid.from_starts(m["shape"], m["band_starts"])
        blobs = [store.get_object(d) for d in m["tiles"]]
        window = tuple(slice(0, d) for d in grid.shape)

        def call(m=m, grid=grid, blobs=blobs, window=window) -> Any:
            return assemble_tiles(
                m, grid, window, range(grid.n_tiles),
                lambda t: decode_tile_blob(m, grid, t, blobs[t]), strict=True,
            )

        def check(result: Any, name=name) -> None:
            checks.same_array(result.data, ds.expected(name), f"lib_read {name}")

        classes.append(ReqClass(f"lib_read:{name}", call, check, ds.bases[name].nbytes))
    return classes


def _local_traced(ctx: Ctx, ds: Dataset, root: Path) -> None:
    ds.narrow(4)
    fs = procs.CountingFS()
    backend = local_backend(root)
    writer = ArrayStore(root, fs=fs)

    # put ladder: library tile compression vs ArrayStore.put, interleaved
    lib_puts, puts = _library_put_classes(ds), ds.put_classes(writer)
    pairs = interleave(lib_puts, puts)
    fs0 = (fs.fsyncs, fs.bytes_written)
    put_samples = run_classes(
        pairs, ctx.share(0.25), ctx.ledger, tracer=ctx.tracer, span="store.put",
        min_reps=2, max_reps=2 if ctx.quick else len(ds.plan["versions"]),
    )
    n_puts = sum(len(put_samples[c.name]) for c in puts)
    put_bytes = sum(c.nbytes * len(put_samples[c.name]) for c in puts)
    rung_put = [_mean_ms(lib_puts, put_samples), _mean_ms(puts, put_samples)]
    ctx.put("store.codec.put_ms", rung_put[0])
    ctx.put("store.put.self_ms", rung_put[1] - rung_put[0])
    ctx.put("store.fsyncs_per_put", (fs.fsyncs - fs0[0]) / n_puts if n_puts else 0.0)
    ctx.put("store.bytes_written_per_user_byte",
            (fs.bytes_written - fs0[1]) / put_bytes if put_bytes else 0.0)

    # identical re-put: every tile deduplicates
    dedup = []
    for name in ds.names:
        data = ds.variant(name, ds.version[name])
        CAL.maybe_tick()
        t0 = clock()
        result = ctx.ledger.attempt(
            f"re-put {name}",
            lambda: writer.put(name, data, CODEC, EB, MODE, n_tiles=TILES))
        dedup.append(CAL.norm(clock() - t0))
        if result is not None and result.new_objects:
            ctx.ledger.fail(f"re-put {name}", CheckFailure(
                f"{result.new_objects} tiles were written again"))
    ctx.put("store.dedup_put_ms", median(dedup) * 1e3)

    # read ladder: decode + assemble vs a cold ArrayStore.read
    lib_reads, reads = _library_read_classes(ds, writer), read_classes(ds, backend)
    pairs = interleave(lib_reads, reads)
    read_samples = run_classes(
        pairs, ctx.share(0.2), ctx.ledger, tracer=ctx.tracer, span="store.read",
        **ctx.reps,
    )
    _settle(reads)
    rung_read = [_mean_ms(lib_reads, read_samples), _mean_ms(reads, read_samples)]
    ctx.put("store.codec.read_ms", rung_read[0])
    ctx.put("store.read.self_ms", rung_read[1] - rung_read[0])
    ctx.put("store.ladder_closure_pct",
            (_closure(rung_put) + _closure(rung_read)) / 2)
    ctx.notes["ladder_ms"] = {"put": [round(v, 2) for v in rung_put],
                              "read": [round(v, 2) for v in rung_read]}

    # cold slices: how many tiles does one decode?
    windows = ds.plan["windows"]
    decodes: list[int] = []
    cold = slice_classes(ds, windows, "slice_cold", backend=backend,
                         after=lambda h: decodes.append(h.decode_calls))
    cold_samples = run_classes(cold, ctx.share(0.12), ctx.ledger, **ctx.reps)
    _settle(cold)
    ctx.put("store.slice_cold_p50_ms", median(_latencies(cold, cold_samples)) * 1e3)
    ctx.put("store.decode_calls_per_slice", sum(decodes) / len(decodes) if decodes else 0.0)

    # warm slices, alternating plain and span-recording passes
    reader = backend.open()
    warm = slice_classes(ds, windows, "slice_warm", handle=reader)
    run_classes(warm, 0.0, ctx.ledger, min_reps=1, max_reps=1)
    c0 = reader.cache.stats()
    plain, spanned = run_alternating(
        warm, ctx.share(0.08), ctx.ledger, ctx.tracer, "store.read_slice",
        quick=ctx.quick)
    c1 = reader.cache.stats()
    ctx.put("trace.overhead_pct", overhead_pct(warm, plain, spanned))
    ctx.put("store.cache.hit_ratio.warm", _hit_ratio(c0, c1))
    warm_lat = _latencies(warm, plain) + _latencies(warm, spanned)
    ctx.put("store.latency_tail_ms", tail(warm_lat)[1] * 1e3)
    ctx.note_samples("slice_warm", warm_lat)

    # thrash: a cache smaller than the working set, skewed windows
    small = backend.open(cache_bytes=inputs.THRASH_CACHE_BYTES)
    n_rows = next(iter(ds.bases.values())).shape[0]
    thrash = []
    for i, w in enumerate(ds.plan["thrash"]):
        name, window = w["field"], inputs.thrash_slices(w, n_rows)

        def check(result: Any, name=name, window=window) -> None:
            checks.same_array(result.data, ds.expected(name)[window], f"thrash {name}")

        thrash.append(ReqClass(
            f"thrash:{i:03d}",
            lambda n=name, s=window: small.read_slice(n, s), check))
    t_samples = run_classes(thrash, ctx.share(0.12), ctx.ledger, **ctx.reps)
    stats = small.cache.stats()
    ctx.put("store.slice_thrash_p50_ms", median(_latencies(thrash, t_samples)) * 1e3)
    ctx.put("store.cache.hit_ratio.thrash",
            _hit_ratio(dict.fromkeys(stats, 0), stats))
    ctx.put("store.cache.evictions", stats["evictions"])
    ctx.notes["K"] = {"put": n_puts // len(puts),
                      "read_full": min(len(read_samples[c.name]) for c in reads)}


def _hit_ratio(before: dict, after: dict) -> float:
    hits = after["hits"] - before["hits"]
    looks = hits + after["misses"] - before["misses"]
    return hits / looks if looks else 0.0


# -- store_sharded --------------------------------------------------------------------


@contextmanager
def _cluster(ctx: Ctx, plan: dict, n_shards: int, tag: str = "shard"):
    roots = [ctx.workdir / f"{tag}{i}" for i in range(n_shards)]
    for root in roots:
        shutil.rmtree(root, ignore_errors=True)
    specs = {
        f"{tag}{i}": ("--store", str(root)) + SHARD_ARGS
        for i, root in enumerate(roots)
    }
    with procs.servers(ctx.workdir, specs) as up:
        yield Dataset(plan), list(up.values()), roots


def run_sharded(ctx: Ctx) -> None:
    plan = inputs.store_plan(ctx.seed)
    with staged(ctx, lambda: _cluster(ctx, plan, 3)) as (ds, servers, roots):
        if ctx.trace:
            _sharded_traced(ctx, ds, servers, roots)
        else:
            _end_to_end(ctx, ds, gateway_backend(servers, roots, replicas=2))


def _sharded_traced(ctx: Ctx, ds: Dataset, servers: list[procs.Server],
                    roots: list[Path]) -> None:
    ds.narrow(4)
    wire, wire_single = procs.WireCounts(), procs.WireCounts()
    registry = MetricsRegistry()
    three = gateway_backend(servers, roots, 2, socket_factory=wire, metrics=registry)
    local = local_backend(ctx.workdir / "rung-local")
    with _cluster(ctx, ds.plan, 1, tag="single") as (_, single_servers, single_roots):
        one = gateway_backend(single_servers, single_roots, 1,
                              socket_factory=wire_single)
        rungs = (("store", local), ("gateway", one), ("replicated", three))
        _sharded_ladder(ctx, ds, rungs, wire, wire_single)
    _one_down(ctx, ds, servers, three)
    gw = three.open()
    try:
        digests = [f"{i:064x}" for i in range(1000)]
        CAL.tick()
        t0 = clock()
        for d in digests:
            gw.ring.owners(d, 2)
        ctx.put("shard.ring.owner_lookup_us",
                CAL.norm(clock() - t0) / len(digests) * 1e6)
    finally:
        three.close(gw)
    events = registry.snapshot().events
    ctx.put("shard.gateway.failovers", events.get("gateway.failovers", 0))
    ctx.put("shard.gateway.read_repairs", events.get("gateway.read_repairs", 0))
    ctx.put("shard.gateway.degraded_writes", events.get("gateway.degraded_writes", 0))


def _sharded_ladder(ctx: Ctx, ds: Dataset, rungs, wire: procs.WireCounts,
                    wire_single: procs.WireCounts) -> None:
    """put, slice_cold and slice_warm at all three rungs, interleaved."""
    names = [r for r, _ in rungs]
    handles = {r: b.open() for r, b in rungs}
    windows = ds.plan["windows"][:12]
    user_bytes = 0
    try:
        # put: the three rungs put the same version of a field back to back
        versions = {r: Dataset(ds.plan, ds.bases) for r in names}
        put_classes = {r: versions[r].put_classes(handles[r], f"put@{r}") for r in names}
        flat = interleave(*put_classes.values())
        wire0 = wire.snapshot()
        put_samples = run_classes(
            flat, ctx.share(0.3), ctx.ledger, tracer=ctx.tracer, span="shard.put",
            min_reps=1 if ctx.quick else 2, max_reps=1 if ctx.quick else 3,
        )
        ds.version = versions["replicated"].version
        put_ms = [_mean_ms(put_classes[r], put_samples) for r in names]
        user_bytes += sum(
            c.nbytes * len(put_samples[c.name]) for c in put_classes["replicated"])

        # cold slices at each rung
        cold = {r: slice_classes(ds, windows, f"slice_cold@{r}", backend=b)
                for r, b in rungs}
        flat = interleave(*cold.values())
        _settle(flat)
        w0 = wire.snapshot()
        cold_samples = run_classes(
            flat, ctx.share(0.2), ctx.ledger, tracer=ctx.tracer,
            span="shard.slice_cold", **ctx.reps)
        _settle(flat)
        w1 = wire.snapshot()
        n_cold = sum(len(cold_samples[c.name]) for c in cold["replicated"])
        cold_ms = [_mean_ms(cold[r], cold_samples) for r in names]
        ctx.put("shard.gateway.round_trips_per_slice.cold",
                (w1[1] - w0[1]) / n_cold if n_cold else 0.0)
        ctx.put("shard.gateway.connections_per_cold_slice",
                (w1[0] - w0[0]) / n_cold if n_cold else 0.0)
        ctx.put("shard.gateway.slice_cold_p50_ms",
                median(_latencies(cold["replicated"], cold_samples)) * 1e3)
        user_bytes += sum(
            c.nbytes * len(cold_samples[c.name]) for c in cold["replicated"])

        # warm slices at each rung, alternating plain and recorded passes
        warm = {r: slice_classes(ds, windows, f"slice_warm@{r}", handle=handles[r])
                for r in names}
        flat = interleave(*warm.values())
        run_classes(flat, 0.0, ctx.ledger, min_reps=1, max_reps=1)
        w0, s0 = wire.snapshot(), wire_single.snapshot()
        c0 = handles["replicated"].cache.stats()
        plain, spanned = run_alternating(
            flat, ctx.share(0.15), ctx.ledger, ctx.tracer, "shard.slice_warm",
            quick=ctx.quick)
        w1, s1 = wire.snapshot(), wire_single.snapshot()
        c1 = handles["replicated"].cache.stats()
        both = {k: plain[k] + spanned[k] for k in plain}
        n_warm = sum(len(both[c.name]) for c in warm["replicated"])
        warm_ms = [_mean_ms(warm[r], both) for r in names]
        ctx.put("trace.overhead_pct", overhead_pct(flat, plain, spanned))
        ctx.put("shard.gateway.round_trips_per_slice.warm",
                (w1[1] - w0[1]) / n_warm if n_warm else 0.0)
        ctx.put("shard.single.round_trips_per_slice.warm",
                (s1[1] - s0[1]) / n_warm if n_warm else 0.0)
        ctx.put("shard.gateway.cache.hit_ratio.warm", _hit_ratio(c0, c1))
        user_bytes += sum(c.nbytes * len(both[c.name]) for c in warm["replicated"])
    finally:
        for (_, backend), handle in zip(rungs, handles.values()):
            backend.close(handle)

    for op, ms in (("put", put_ms), ("slice_cold", cold_ms), ("slice_warm", warm_ms)):
        ctx.put(f"shard.gateway.self_ms.{op}", ms[1] - ms[0])
        ctx.put(f"shard.replication.self_ms.{op}", ms[2] - ms[1])
    ctx.put("shard.ladder_closure_pct",
            (_closure(put_ms) + _closure(cold_ms) + _closure(warm_ms)) / 3)
    sent = wire.snapshot()
    ctx.put("shard.gateway.wire_bytes_per_user_byte",
            (sent[2] - wire0[2] + sent[3] - wire0[3]) / user_bytes if user_bytes else 0.0)
    ctx.notes["ladder_ms"] = {
        op: dict(zip(names, (round(v, 3) for v in ms)))
        for op, ms in (("put", put_ms), ("slice_cold", cold_ms), ("slice_warm", warm_ms))
    }
    ctx.notes["K"] = {"put": len(put_samples[put_classes["store"][0].name]),
                      "slice_cold": n_cold // len(windows),
                      "slice_warm": n_warm // len(windows)}


def _one_down(ctx: Ctx, ds: Dataset, servers: list[procs.Server],
              backend: Backend) -> None:
    """Stop one shard; with R=2 every cold slice must still be bit-exact."""
    servers[0].stop()
    cold = slice_classes(ds, ds.plan["windows"][:10], "one_down", backend=backend)
    samples = run_classes(cold, 0.0, ctx.ledger, min_reps=1, max_reps=1,
                          tracer=ctx.tracer, span="shard.one_down")
    _settle(cold)
    ctx.put("shard.one_down.slice_cold_p50_ms",
            median(_latencies(cold, samples)) * 1e3)
