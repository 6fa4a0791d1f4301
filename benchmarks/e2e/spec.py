"""The ledger's vocabulary: workloads, end-to-end metrics, per-layer metrics.

Everything a later change can claim on is declared here, once.  The
harness reports exactly these names, ``BENCHMARK.json`` is the rendering
of :func:`manifest`, and ``run.py --selfcheck`` fails when the two drift.

A *layer* is a module of ``src/repro``: ``codec`` and ``kernels`` (the
library), ``service`` (``wavesz serve``), ``store`` (``ArrayStore``) and
``shard`` (``ShardGateway``).  Every per-layer metric names the workloads
that measure it and the end-to-end metrics it is expected to move, and on
which workloads, so a claim can be checked against a prediction made
before the change was written.
"""

from __future__ import annotations

from dataclasses import dataclass

#: How long one run measures; the driver passes it back as ``--seconds``.
RUN_SECONDS = 15

EB = 1e-3
MODE = "vr_rel"
PROFILES = ("wavesz", "wavesz-dp", "wavesz-dp-rans", "wavesz-dp-auto", "sz14")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    means: str  # one line for the glossary


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    measured_on: tuple[str, ...]  # workloads whose traced run fills it
    moves: tuple[str, ...]  # end-to-end metrics it should move ...
    on: tuple[str, ...]  # ... on these workloads (and on no other)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


LIB, SMALL, LARGE, LOCAL, SHARDED = (
    "lib_fields", "svc_small_jobs", "svc_large_fields",
    "store_local", "store_sharded",
)
SERVICE = (SMALL, LARGE)
STORES = (LOCAL, SHARDED)
ALL = (LIB, SMALL, LARGE, LOCAL, SHARDED)

WORKLOADS = (
    Workload(LIB, "in-process codec calls on 0.5-1 MB fields: codec and kernels "
             "do all the work, every serving layer does none"),
    Workload(SMALL, "6-16 KB jobs over TCP: framing, queue, micro-batching "
             "and dispatch are two thirds of a request, the codec one, shm idle"),
    Workload(LARGE, "1.6-2.3 MB fields over TCP: socket ingest, shm transport, "
             "band fan-out and the codec dominate; queue and batching idle"),
    Workload(LOCAL, "ArrayStore on disk, writes beside reads, a working set "
             "that fits the tile cache: the store layer alone, no sockets"),
    Workload(SHARDED, "the store_local schedule through a 3-shard R=2 "
             "gateway: the difference to store_local is the gateway's cost"),
)

TIMED, EXACT = 0.25, 0.01

END_TO_END = (
    EndToEnd("write_mb_s", "MB/s", "higher", TIMED,
             "uncompressed MB accepted per second on the write path: "
             "compress (lib, svc) or put (stores)"),
    EndToEnd("read_mb_s", "MB/s", "higher", TIMED,
             "uncompressed MB returned per second on the read path: "
             "decompress (lib, svc) or cold full read (stores)"),
    EndToEnd("latency_p50_ms", "ms", "lower", TIMED,
             "median client-observed latency of the workload's small "
             "request: one compress call (lib, svc_large), a closed-loop "
             "compress request on 2 connections (svc_small), a warm 0.4 MB "
             "slice (stores; median over windows of the quietest sample)"),
    EndToEnd("ratio", "x", "higher", EXACT,
             "raw bytes / bytes kept: payloads (lib, svc) or files on disk "
             "across all shards (stores); exact for a seed"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.20,
             "harness max RSS + largest spawned process max RSS"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "input generation + server spawn until ready, median of three"),
)

_T = ("write_mb_s", "read_mb_s", "latency_p50_ms")
_RW = ("write_mb_s", "read_mb_s")


#: which workloads send requests to which profile
USES = {
    "wavesz": (LIB,),
    "wavesz-dp": ALL,
    "wavesz-dp-rans": (LIB, SMALL, LARGE),
    "wavesz-dp-auto": (LIB, LARGE),
    "sz14": (LIB, SMALL, LARGE),
}


def _codec_layer() -> list[PerLayer]:
    rows = []
    for p in PROFILES:
        rows += [
            PerLayer(f"codec.{p}.compress_mb_s", "MB/s", "higher",
                     (LIB,), ("write_mb_s",), USES[p]),
            PerLayer(f"codec.{p}.decompress_mb_s", "MB/s", "higher",
                     (LIB,), ("read_mb_s",), USES[p]),
            PerLayer(f"codec.{p}.ratio", "x", "higher", (LIB,), ("ratio",), USES[p]),
        ]
    rows += [
        PerLayer("codec.psnr_db_min", "dB", "higher", (LIB,), ("ratio",), ALL),
        PerLayer("codec.bound_violations", "count", "lower",
                 (LIB,), ("ratio",), ALL),
    ]
    for stage, moved in (
        ("predict.compress_s", "write_mb_s"),
        ("entropy_table.compress_s", "write_mb_s"),
        ("entropy_stream.compress_s", "write_mb_s"),
        ("other.compress_s", "write_mb_s"),
        ("predict.decompress_s", "read_mb_s"),
        ("entropy.decompress_s", "read_mb_s"),
    ):
        rows.append(PerLayer(f"codec.stage.{stage}", "s", "lower",
                             (LIB,), (moved,), (LIB, LARGE) + STORES))
    rows.append(PerLayer("codec.stage.untracked_s", "s", "lower",
                         (LIB,), _RW, (LIB,)))
    return rows


def _kernels_layer() -> list[PerLayer]:
    on = (LIB, LARGE) + STORES
    return [
        PerLayer(f"kernels.{k}.ms_per_mb", "ms/MB", "lower", (LIB,), moved, on)
        for k, moved in (
            ("rans_encode", ("write_mb_s",)),
            ("rans_decode", ("read_mb_s",)),
            ("huffman_decode", ("read_mb_s",)),
            ("pack_codes", ("write_mb_s",)),
            ("lz77_parse", ("write_mb_s",)),
            ("histogram_counts", ("write_mb_s",)),
            ("pqd_compress_sweep", ("write_mb_s",)),
            ("pqd_decompress_sweep", ("read_mb_s",)),
            ("dualquant_delta_encode", ("write_mb_s",)),
            ("dualquant_delta_integrate", ("read_mb_s",)),
        )
    ]


def _service_layer() -> list[PerLayer]:
    def row(name, unit, better, moves=_T, on=SERVICE, measured=SERVICE):
        return PerLayer(f"service.{name}", unit, better, measured, moves, on)

    small, large = (SMALL,), (LARGE,)
    return [
        # the call ladder: rung n - rung n-1, medians, per compress request
        row("codec.self_ms", "ms", "lower"),
        row("workers.self_ms", "ms", "lower"),
        row("scheduler.self_ms", "ms", "lower"),
        row("server.self_ms", "ms", "lower"),
        row("ladder_untracked_ms", "ms", "lower"),
        row("ladder_closure_pct", "%", "higher"),
        row("server.ping_rtt_ms", "ms", "lower", on=small),
        row("server.wire_bytes_per_request", "B", "lower", on=small),
        # what the client saw, by its own name
        row("client.jobs_per_s", "1/s", "higher", ("write_mb_s",), small, small),
        row("client.closed_latency_p50_ms", "ms", "lower",
            ("write_mb_s",), small, small),
        # the open loop (80 req/s, timed from due time) is traced-run only:
        # under a fixed rate a slow box state queues, and the median did
        # not repeat within any bound the contract allows
        row("client.open_latency_p50_ms", "ms", "lower",
            ("latency_p50_ms",), small, small),
        row("client.open_lateness_ms_p50", "ms", "lower",
            ("latency_p50_ms",), small, small),
        row("client.open_achieved_rps", "1/s", "higher",
            ("latency_p50_ms",), small, small),
        row("client.latency_tail_ms", "ms", "lower"),
        # the server's own counters (public stats/health ops), run deltas
        row("queue.high_water", "count", "lower", on=small),
        row("queue.rejected", "count", "lower", on=small),
        row("scheduler.retried", "count", "lower"),
        row("scheduler.tile_fanouts", "count", "higher", _RW, large),
        row("scheduler.batch_dispatches", "count", "lower", on=small),
        row("scheduler.batch_jobs", "count", "higher", on=small),
        row("scheduler.batch_occupancy", "jobs", "higher", on=small),
        row("scheduler.job_ms_p50", "ms", "lower"),
        row("shm.resident_bytes", "B", "lower", ("peak_rss_mb",), large),
        row("shm.leaked_segments", "count", "lower", ("peak_rss_mb",), large),
        row("shm.encode_ms_per_mb", "ms/MB", "lower",
            _RW + ("peak_rss_mb",), large),
        row("shm.pickle_ms_per_mb", "ms/MB", "lower", _RW, large),
    ]


def _store_layer() -> list[PerLayer]:
    def row(name, unit, better, moves):
        return PerLayer(f"store.{name}", unit, better, (LOCAL,), moves, STORES)

    w, r, lat = ("write_mb_s",), ("read_mb_s",), ("latency_p50_ms",)
    return [
        row("codec.put_ms", "ms", "lower", w),
        row("put.self_ms", "ms", "lower", w),
        row("codec.read_ms", "ms", "lower", r),
        row("read.self_ms", "ms", "lower", r),
        row("ladder_closure_pct", "%", "higher", w + r),
        row("fsyncs_per_put", "count", "lower", w),
        row("bytes_written_per_user_byte", "B/B", "lower", w + ("ratio",)),
        row("dedup_put_ms", "ms", "lower", w),
        row("decode_calls_per_slice", "count", "lower", r + lat),
        row("slice_cold_p50_ms", "ms", "lower", r),
        row("slice_thrash_p50_ms", "ms", "lower", lat),
        row("cache.hit_ratio.warm", "ratio", "higher", lat),
        row("cache.hit_ratio.thrash", "ratio", "higher", lat),
        row("cache.evictions", "count", "lower", lat),
        row("latency_tail_ms", "ms", "lower", lat),
    ]


def _shard_layer() -> list[PerLayer]:
    def row(name, unit, better, moves):
        return PerLayer(f"shard.{name}", unit, better,
                        (SHARDED,), moves, (SHARDED,))

    w, r, lat = ("write_mb_s",), ("read_mb_s",), ("latency_p50_ms",)
    return [
        # rungs: ArrayStore -> 1-shard R=1 gateway -> 3-shard R=2 gateway
        row("gateway.self_ms.put", "ms", "lower", w),
        row("gateway.self_ms.slice_cold", "ms", "lower", r),
        row("gateway.self_ms.slice_warm", "ms", "lower", lat),
        row("replication.self_ms.put", "ms", "lower", w),
        row("replication.self_ms.slice_cold", "ms", "lower", r),
        row("replication.self_ms.slice_warm", "ms", "lower", lat),
        row("ladder_closure_pct", "%", "higher", w + r + lat),
        row("gateway.slice_cold_p50_ms", "ms", "lower", r),
        row("gateway.round_trips_per_slice.warm", "count", "lower", lat),
        row("single.round_trips_per_slice.warm", "count", "lower", lat),
        row("gateway.round_trips_per_slice.cold", "count", "lower", r),
        row("gateway.connections_per_cold_slice", "count", "lower", r),
        row("gateway.wire_bytes_per_user_byte", "B/B", "lower", w + r),
        row("gateway.cache.hit_ratio.warm", "ratio", "higher", lat),
        row("gateway.failovers", "count", "lower", r),
        row("gateway.read_repairs", "count", "lower", r),
        row("gateway.degraded_writes", "count", "lower", w),
        row("one_down.slice_cold_p50_ms", "ms", "lower", r),
        row("ring.owner_lookup_us", "us", "lower", lat),
    ]


PER_LAYER = tuple(
    _codec_layer() + _kernels_layer() + _service_layer()
    + _store_layer() + _shard_layer()
    + [
        PerLayer("trace.overhead_pct", "%", "lower", ALL, _T, ALL),
        PerLayer("trace.spans", "count", "higher", ALL, _T, ALL),
    ]
)


def manifest() -> dict:
    """The object ``BENCHMARK.json`` must hold."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
