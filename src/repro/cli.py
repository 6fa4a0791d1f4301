"""Command-line interface, mirroring the artifact's ``sz`` invocations.

The artifact drives SZ as ``sz -z -f -c sz.config -M REL -R 1E-3 -i data
-2 3600 1800`` and waveSZ/GhostSZ as ``cpurun d0 d1 1 -3 base10 data wave
VRREL``.  This CLI provides the same workflow on the reproduction:

    wavesz compress  snapshot.f32 --dims 180 360 --variant wavesz \
        --eb 1e-3 --mode vr_rel -o snapshot.wsz
    wavesz decompress snapshot.wsz -o restored.f32
    wavesz info       snapshot.wsz
    wavesz datasets
    wavesz generate   CESM-ATM CLDLOW -o cldlow.f32

Exit status is non-zero on any error; all output goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .codec.registry import REGISTRY, get_codec
from .config import ErrorBoundMode
from .data import DATASETS, load_field
from .errors import ReproError
from .io import Container, read_raw_field, write_raw_field
from .metrics import max_abs_error, psnr

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wavesz",
        description="waveSZ reproduction: error-bounded lossy compression "
        "for scientific data",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compress", help="compress a raw binary field")
    c.add_argument("input", type=Path)
    c.add_argument("--dims", type=int, nargs="+", required=True,
                   help="field dimensions, slowest axis first")
    c.add_argument("--variant", choices=REGISTRY.short_names(),
                   default="wavesz")
    c.add_argument("--eb", type=float, default=1e-3, help="error bound")
    c.add_argument("--mode", choices=[m.value for m in ErrorBoundMode],
                   default="vr_rel")
    c.add_argument("--dtype", choices=["float32", "float64"],
                   default="float32")
    c.add_argument("-o", "--output", type=Path, required=True)
    c.add_argument("--verify", action="store_true",
                   help="decompress and verify the bound after compressing")

    d = sub.add_parser("decompress", help="decompress a .wsz payload")
    d.add_argument("input", type=Path)
    d.add_argument("-o", "--output", type=Path, required=True)

    i = sub.add_parser("info", help="print a payload's header and sections")
    i.add_argument("input", type=Path)

    sub.add_parser("datasets", help="list the synthetic SDRB datasets")

    g = sub.add_parser("generate", help="generate a synthetic field")
    g.add_argument("dataset", choices=sorted(DATASETS))
    g.add_argument("field")
    g.add_argument("--scale", type=int, default=1)
    g.add_argument("-o", "--output", type=Path, required=True)

    a = sub.add_parser("archive",
                       help="put a whole synthetic snapshot into a store")
    a.add_argument("dataset", choices=sorted(DATASETS))
    a.add_argument("--variant", choices=REGISTRY.short_names(),
                   default="wavesz")
    a.add_argument("--eb", type=float, default=1e-3)
    a.add_argument("-o", "--output", type=Path, required=True)

    e = sub.add_parser("extract", help="extract one field from an archive")
    e.add_argument("input", type=Path)
    e.add_argument("field")
    e.add_argument("-o", "--output", type=Path, required=True)

    r = sub.add_parser("report",
                       help="print the waveSZ HLS synthesis report")
    r.add_argument("--dims", type=int, nargs=2, required=True,
                   metavar=("D0", "D1"))
    r.add_argument("--base10", action="store_true",
                   help="model the base-10 (divider) datapath instead")

    v = sub.add_parser(
        "verify",
        help="check a payload's checksums, decodability and (optionally) "
        "its error bound against the original field")
    v.add_argument("input", type=Path)
    v.add_argument("--original", type=Path,
                   help="raw binary field to check the error bound against")
    v.add_argument("--dims", type=int, nargs="+",
                   help="dimensions of --original, slowest axis first")
    v.add_argument("--dtype", choices=["float32", "float64"],
                   default="float32")

    sub.add_parser("codecs", help="list registered codecs and aliases")

    s = sub.add_parser(
        "serve",
        help="run the batch-compression service over TCP")
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=8123)
    s.add_argument("--workers", type=int, default=None,
                   help="worker count (default: CPU count; 0 = inline)")
    s.add_argument("--pool", choices=["process", "thread", "inline"],
                   default="process")
    s.add_argument("--queue-size", type=int, default=128,
                   help="bounded queue capacity (backpressure threshold)")
    s.add_argument("--max-retries", type=int, default=2)
    s.add_argument("--transport", choices=["auto", "shm", "pickle"],
                   default="auto",
                   help="field transport across the pool: shared-memory "
                   "FieldRefs (process pools, zero-copy) or pickled "
                   "arrays; auto picks shm whenever it pays")
    s.add_argument("--batch-bytes", type=int, default=32768,
                   help="coalesce jobs smaller than this many bytes into "
                   "one worker dispatch (0 disables micro-batching)")
    s.add_argument("--store", type=Path, default=None,
                   help="array-store root to expose over the "
                   "store_put/store_read/store_slice ops")
    s.add_argument("--shards", default=None,
                   help="comma-separated host:port list of the cluster "
                   "this server is one shard of; served on the "
                   "shard_map op so clients can bootstrap failover")
    s.add_argument("--replicas", type=int, default=2,
                   help="replication factor advertised with --shards")

    b = sub.add_parser(
        "batch",
        help="run a manifest of compression jobs through the service "
        "scheduler and write the payloads")
    b.add_argument("manifest", type=Path,
                   help="JSON manifest: {defaults: {...}, jobs: [...]}; "
                   "each job names either input+dims or dataset+field")
    b.add_argument("-o", "--outdir", type=Path, required=True)
    b.add_argument("--workers", type=int, default=None,
                   help="worker count (default: CPU count; 0 = inline)")
    b.add_argument("--pool", choices=["process", "thread", "inline"],
                   default="process")
    b.add_argument("--queue-size", type=int, default=128)
    b.add_argument("--transport", choices=["auto", "shm", "pickle"],
                   default="auto",
                   help="field transport across the pool (see serve)")
    b.add_argument("--batch-bytes", type=int, default=32768,
                   help="micro-batch threshold in bytes (0 disables)")
    b.add_argument("--report", type=Path, default=None,
                   help="also write per-job results + ServiceStats as JSON")

    st = sub.add_parser(
        "store",
        help="persistent compressed array store (tile-level random access)")
    st.add_argument("--root", type=Path, default=None,
                    help="store directory (created on first put)")
    st.add_argument("--gateway", default=None,
                    help="operate on a sharded store instead of a local "
                    "directory: host:port of a gateway / cluster member "
                    "(shard map is fetched), or a full comma-separated "
                    "shard list")
    st.add_argument("--replicas", type=int, default=2,
                    help="replication factor when --gateway lists the "
                    "shards directly (ignored when the map is fetched)")
    stsub = st.add_subparsers(dest="store_command", required=True)

    sp = stsub.add_parser("put", help="compress a raw field into the store")
    sp.add_argument("input", type=Path)
    sp.add_argument("name", help="dataset name ([A-Za-z0-9._-], ≤128 chars)")
    sp.add_argument("--dims", type=int, nargs="+", required=True,
                    help="field dimensions, slowest axis first")
    sp.add_argument("--dtype", choices=["float32", "float64"],
                    default="float32")
    sp.add_argument("--variant", choices=REGISTRY.short_names(),
                    default="wavesz")
    sp.add_argument("--eb", type=float, default=1e-3)
    sp.add_argument("--mode", choices=[m.value for m in ErrorBoundMode],
                    default="vr_rel")
    sp.add_argument("--tiles", type=int, default=4,
                    help="tile count (clamped to the field's feasible max)")

    sg = stsub.add_parser("get", help="read a full field back bit-exactly")
    sg.add_argument("name")
    sg.add_argument("-o", "--output", type=Path, required=True)
    sg.add_argument("--no-strict", action="store_true",
                    help="skip damaged tiles (zero-filled) instead of "
                    "failing; lost tile indices print to stderr")

    ss = stsub.add_parser(
        "slice",
        help="read a sub-window, decoding only the tiles it overlaps")
    ss.add_argument("name")
    ss.add_argument("--window", required=True,
                    help="per-axis start:stop windows, e.g. '8:24,0:90' "
                    "(empty end = to the edge, omitted axis = full)")
    ss.add_argument("-o", "--output", type=Path, required=True)
    ss.add_argument("--no-strict", action="store_true")

    stsub.add_parser("ls", help="list stored datasets")
    stsub.add_parser("gc", help="remove objects no manifest references "
                     "and stale crash leftovers")

    sf = stsub.add_parser(
        "fsck",
        help="audit manifests, objects and the journal; optionally repair")
    sf.add_argument("--repair", action="store_true",
                    help="roll back interrupted puts, drop orphans and "
                    "crash leftovers")
    sf.add_argument("--deep", action="store_true",
                    help="also decode every object and check tile shapes")

    sh = sub.add_parser(
        "shard",
        help="sharded store: run a gateway over N shard servers, probe "
        "cluster health")
    shsub = sh.add_subparsers(dest="shard_command", required=True)

    shs = shsub.add_parser(
        "serve",
        help="run a shard gateway fronting N wavesz servers with stores")
    shs.add_argument("--listen", default="127.0.0.1:8124",
                     help="host:port the gateway listens on")
    shs.add_argument("--shards", required=True,
                     help="comma-separated host:port list of the shard "
                     "servers (each a 'wavesz serve --store DIR')")
    shs.add_argument("--replicas", type=int, default=2,
                     help="copies of every tile object and manifest "
                     "(clamped to the shard count)")

    sht = shsub.add_parser(
        "status",
        help="probe every shard's health and print per-shard telemetry")
    sht.add_argument("--gateway", required=True,
                     help="host:port of a gateway / cluster member, or "
                     "the full comma-separated shard list")
    sht.add_argument("--replicas", type=int, default=2)

    ch = sub.add_parser(
        "chaos",
        help="run seeded fault-schedule sweeps and check the durability "
        "and at-most-once invariants")
    ch.add_argument("--suite", choices=["store", "service", "shard", "all"],
                    default="store")
    ch.add_argument("--seed", type=int, default=0,
                    help="master seed; a failing run replays from "
                    "(seed, run) alone")
    ch.add_argument("--schedules", type=int, default=200,
                    help="store schedules to sweep (service runs are "
                    "capped at schedules // 25 + 2)")
    ch.add_argument("--workdir", type=Path, default=None,
                    help="scratch directory (default: a temp dir)")
    return p


def _cmd_compress(args: argparse.Namespace) -> int:
    dtype = np.dtype(args.dtype)
    data = read_raw_field(args.input, tuple(args.dims), dtype)
    comp = get_codec(args.variant)
    cf = comp.compress(data, args.eb, args.mode)
    args.output.write_bytes(cf.payload)
    s = cf.stats
    print(f"{args.input} -> {args.output}")
    print(f"  variant {cf.variant}, bound {cf.bound.mode.value} "
          f"{cf.bound.value:g} (abs {cf.bound.absolute:.3e})")
    print(f"  {s.original_bytes} -> {s.compressed_bytes} bytes, "
          f"ratio {s.ratio:.2f}x, {s.bit_rate:.2f} bits/point")
    if args.verify:
        out = comp.decompress(cf.payload)
        err = max_abs_error(data, out)
        print(f"  verified: max error {err:.3e}, PSNR {psnr(data, out):.1f} dB")
        if cf.bound.mode is not ErrorBoundMode.PW_REL and (
            err > cf.bound.absolute
        ):
            print("  ERROR: bound violated", file=sys.stderr)
            return 2
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    from .streams import decompress_auto

    container, variant = REGISTRY.open(args.input.read_bytes())
    out = decompress_auto(container)
    write_raw_field(args.output, out)
    print(f"{args.input} -> {args.output} "
          f"({variant}, shape {out.shape}, {out.dtype})")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    container = Container.from_bytes(args.input.read_bytes())
    print(json.dumps(container.header, indent=2, sort_keys=True))
    for s in container.sections:
        print(f"  section {s.name:<18} {len(s.payload):>10} bytes")
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    for name, spec in DATASETS.items():
        print(f"{name}: {spec.description}")
        print(f"  paper dims {spec.paper_dims} x {spec.paper_fields} fields; "
              f"repro dims {spec.repro_dims}")
        for f in spec.fields:
            print(f"    {f.name:<22} {f.description}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    field = load_field(args.dataset, args.field, scale=args.scale)
    write_raw_field(args.output, field)
    print(f"{args.dataset}/{args.field} {field.shape} {field.dtype} "
          f"-> {args.output} ({field.nbytes} bytes)")
    return 0


def _cmd_archive(args: argparse.Namespace) -> int:
    from .store import ArrayStore

    store = ArrayStore(args.output)
    print(f"{args.dataset} snapshot -> {args.output}")
    for f in DATASETS[args.dataset].field_names:
        r = store.put(f, load_field(args.dataset, f), args.variant, args.eb)
        print(f"  {r.name:<22} {r.codec:<9} ratio {r.ratio:6.1f}x  "
              f"{r.stored_bytes + r.dedup_bytes} B")
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    from .store import ArrayStore

    store = ArrayStore(args.input)
    names = store.names()
    if args.field not in names:
        print(f"error: archive has no field {args.field!r}; "
              f"available: {list(names)}", file=sys.stderr)
        return 1
    out = store.read(args.field).data
    write_raw_field(args.output, out)
    print(f"{args.field} {out.shape} -> {args.output}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .metrics import verify_error_bound
    from .streams import bound_from_header, decompress_auto

    blob = args.input.read_bytes()
    report = Container.scan(blob)
    for s in report.sections:
        if not s.ok:
            print(f"{args.input}: section {s.name!r}: {s.detail}",
                  file=sys.stderr)
    for prob in report.problems:
        print(f"{args.input}: {prob}", file=sys.stderr)
    if not report.ok:
        print(f"{args.input}: FAILED integrity check", file=sys.stderr)
        return 1

    container, variant = REGISTRY.open(blob)
    out = decompress_auto(container)
    header = container.header
    msg = (f"{args.input}: OK (v{report.version}, "
           f"{report.n_sections} sections, {variant}, shape {out.shape})")

    if args.original is not None:
        if not args.dims:
            print("error: --original requires --dims", file=sys.stderr)
            return 2
        data = read_raw_field(args.original, tuple(args.dims),
                              np.dtype(args.dtype))
        if "bound" in header:
            bound_abs = bound_from_header(header.get("bound")).absolute
        else:  # tiled containers carry the resolved absolute bound
            bound_abs = float(header["eb_abs"])
        verify_error_bound(data, out, bound_abs)
        err = max_abs_error(data, out)
        msg += f", max error {err:.3e} <= bound {bound_abs:.3e}"
    print(msg)
    return 0


def _cmd_codecs(_: argparse.Namespace) -> int:
    for entry in REGISTRY.describe():
        names = ", ".join(entry["aliases"] + entry["profiles"])
        row = f" (Table 2: {entry['table2']})" if entry["table2"] else ""
        backends = entry.get("entropy_backends") or []
        tail = f" [entropy: {'|'.join(backends)}]" if backends else ""
        modes = f" [modes: {'|'.join(entry['modes'])}]"
        print(f"{entry['name']}: {names}{row}{modes}{tail}")
    from .service.shm import ShmArena

    resolved = "shm" if ShmArena.available() else "pickle"
    print(f"service transport: {resolved} resolved for process pools "
          "(thread/inline pools always use pickle in-process)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service.server import serve

    shard_map = None
    if args.shards is not None:
        from .shard import ShardMap

        shard_map = ShardMap.from_addresses(
            args.shards, replicas=args.replicas
        ).to_dict()
    try:
        asyncio.run(serve(
            args.host,
            args.port,
            workers=args.workers,
            pool_kind=args.pool,
            queue_size=args.queue_size,
            max_retries=args.max_retries,
            transport=args.transport,
            batch_bytes=args.batch_bytes,
            store_root=None if args.store is None else str(args.store),
            shard_map=shard_map,
        ))
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _load_batch_manifest(args: argparse.Namespace) -> list:
    """Parse the manifest into validated CompressionJobs (order kept)."""
    from .service.jobs import make_job

    spec = json.loads(args.manifest.read_text())
    defaults = spec.get("defaults", {})
    jobs = []
    for i, entry in enumerate(spec.get("jobs", [])):
        merged = {**defaults, **entry}
        if "input" in merged:
            data = read_raw_field(
                args.manifest.parent / merged["input"],
                tuple(merged["dims"]),
                np.dtype(merged.get("dtype", "float32")),
            )
            name = Path(merged["input"]).stem
        elif "dataset" in merged:
            data = load_field(
                merged["dataset"], merged["field"],
                scale=int(merged.get("scale", 1)),
            )
            name = f"{merged['dataset']}_{merged['field']}"
        else:
            raise ReproError(
                f"manifest job {i} names neither 'input' nor 'dataset'"
            )
        out_name = merged.get("output", f"{name}.wsz")
        if any(out_name == taken for taken, _ in jobs):
            stem, dot, suffix = out_name.partition(".")
            out_name = f"{stem}_{i}{dot}{suffix}"
        jobs.append((out_name, make_job(
            merged.get("codec", "wavesz"),
            data,
            eb=float(merged.get("eb", 1e-3)),
            mode=merged.get("mode", "vr_rel"),
            priority=int(merged.get("priority", 0)),
            deadline_s=merged.get("deadline_s"),
            n_tiles=int(merged.get("tiles", 1)),
        )))
    if not jobs:
        raise ReproError("manifest contains no jobs")
    return jobs


def _cmd_batch(args: argparse.Namespace) -> int:
    from .service.scheduler import run_batch

    named = _load_batch_manifest(args)
    results, stats = run_batch(
        [j for _, j in named],
        workers=args.workers,
        pool_kind=args.pool,
        queue_size=args.queue_size,
        transport=args.transport,
        batch_bytes=args.batch_bytes,
    )
    args.outdir.mkdir(parents=True, exist_ok=True)
    failed = 0
    report = []
    for (out_name, job), result in zip(named, results):
        if result is None:
            failed += 1
            print(f"  {out_name:<28} FAILED ({job.codec})", file=sys.stderr)
            report.append({"output": out_name, "codec": job.codec,
                           "ok": False})
            continue
        (args.outdir / out_name).write_bytes(result.output)
        s = result.stats
        print(f"  {out_name:<28} {job.codec:<9} "
              f"ratio {s.ratio:6.2f}x  {result.total_s * 1e3:7.1f} ms "
              f"({result.attempts} attempt(s))")
        report.append({
            "output": out_name, "codec": job.codec, "ok": True,
            "ratio": s.ratio, "latency_s": result.total_s,
            "attempts": result.attempts,
        })
    t = stats.totals
    print(f"batch: {t['completed']}/{t['submitted']} jobs ok, "
          f"{t['retried']} retries, queue high-water "
          f"{stats.queue_high_water}/{stats.queue_capacity}, "
          f"{stats.throughput_jobs_per_s:.1f} jobs/s")
    if args.report is not None:
        args.report.write_text(json.dumps(
            {"jobs": report, "stats": stats.to_dict()}, indent=2
        ))
        print(f"report -> {args.report}")
    return 1 if failed else 0


def _parse_window(text: str) -> tuple:
    """Parse a ``'8:24,0:90'``-style window into per-axis bound pairs."""
    window = []
    for axis, token in enumerate(text.split(",")):
        token = token.strip()
        if ":" not in token:
            raise ReproError(
                f"axis {axis}: window {token!r} is not start:stop"
            )
        lo_s, _, hi_s = token.partition(":")
        try:
            window.append((
                int(lo_s) if lo_s.strip() else None,
                int(hi_s) if hi_s.strip() else None,
            ))
        except ValueError as exc:
            raise ReproError(
                f"axis {axis}: bad window bounds {token!r}"
            ) from exc
    return tuple(window)


def _store(args: argparse.Namespace):
    """The store the subcommand operates on: local directory or cluster."""
    if (args.root is None) == (args.gateway is None):
        raise ReproError(
            "pass exactly one of --root (local store) or --gateway "
            "(sharded store)"
        )
    if args.gateway is not None:
        from .shard import ShardGateway

        return ShardGateway.from_any(args.gateway, replicas=args.replicas)
    from .store import ArrayStore

    return ArrayStore(args.root)


def _store_desc(args: argparse.Namespace) -> str:
    return str(args.root) if args.root is not None else f"[{args.gateway}]"


def _report_damage(result, name: str) -> None:
    for d in result.damaged:
        print(f"{name}: tile {d.index} lost ({d.stage}: {d.error})",
              file=sys.stderr)


def _cmd_store_put(args: argparse.Namespace) -> int:
    data = read_raw_field(args.input, tuple(args.dims), np.dtype(args.dtype))
    result = _store(args).put(
        args.name, data, args.variant, args.eb, args.mode, n_tiles=args.tiles
    )
    print(f"{args.input} -> {_store_desc(args)}/{result.name} "
          f"({result.codec}, {result.n_tiles} tiles, "
          f"ratio {result.ratio:.2f}x)")
    print(f"  {result.new_objects} new object(s), {result.stored_bytes} B "
          f"written; {result.dedup_objects} deduplicated "
          f"({result.dedup_bytes} B saved)")
    return 0


def _cmd_store_get(args: argparse.Namespace) -> int:
    result = _store(args).read(args.name, strict=not args.no_strict)
    _report_damage(result, args.name)
    write_raw_field(args.output, result.data)
    print(f"{_store_desc(args)}/{args.name} -> {args.output} "
          f"(shape {result.data.shape}, {result.data.dtype})")
    return 0 if result.ok else 3


def _cmd_store_slice(args: argparse.Namespace) -> int:
    result = _store(args).read_slice(
        args.name, _parse_window(args.window), strict=not args.no_strict
    )
    _report_damage(result, args.name)
    write_raw_field(args.output, result.data)
    print(f"{_store_desc(args)}/{args.name}[{args.window}] -> {args.output} "
          f"(shape {result.data.shape}, {len(result.tile_indices)} "
          f"tile(s) touched)")
    return 0 if result.ok else 3


def _cmd_store_ls(args: argparse.Namespace) -> int:
    rows = _store(args).ls()
    for r in rows:
        shape = "x".join(str(d) for d in r["shape"])
        ratio = (
            r["original_bytes"] / r["compressed_bytes"]
            if r["compressed_bytes"] else 0.0
        )
        print(f"{r['name']:<24} {shape:>12} {r['dtype']:<8} "
              f"{r['codec']:<9} eb {r['eb']:g} {r['n_tiles']:>3} tiles  "
              f"{r.get('entropy', '-'):<8} "
              f"{r['compressed_bytes']:>10} B  ratio {ratio:6.2f}x")
    if not rows:
        print("(empty store)")
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    result = _store(args).gc()
    print(f"gc: removed {result.n_removed} object(s), "
          f"reclaimed {result.reclaimed_bytes} B, kept {result.kept}")
    if result.tmp_removed:
        print(f"gc: swept {len(result.tmp_removed)} stale temp file(s)")
    return 0


def _cmd_store_fsck(args: argparse.Namespace) -> int:
    if args.gateway is not None:
        raise ReproError(
            "fsck audits one store directory; run it shard by shard "
            "with --root (a shard holding tiles whose manifests live on "
            "other shards will correctly report them as remote)"
        )
    store = _store(args)
    if not store.recovery.clean:
        for kind, name in store.recovery.actions:
            print(f"recovery: {kind} {name}")
    report = store.fsck(repair=args.repair, deep=args.deep)
    print(report.summary())
    for f in report.findings:
        mark = " [repaired]" if f.repaired else ""
        print(f"  {f.severity}: {f.kind} {f.subject}: {f.detail}{mark}")
    for a in report.actions:
        print(f"  action: {a}")
    # repaired findings are gone; only what remains broken fails the run.
    return 1 if any(not f.repaired for f in report.errors) else 0


def _cmd_shard_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .shard import ShardGateway, ShardMap, serve_gateway

    host, _, port_s = args.listen.rpartition(":")
    if not host:
        raise ReproError(f"--listen {args.listen!r} is not host:port")
    try:
        port = int(port_s)
    except ValueError as exc:
        raise ReproError(f"--listen {args.listen!r} has a bad port") from exc
    gateway = ShardGateway(
        ShardMap.from_addresses(args.shards, replicas=args.replicas)
    )
    try:
        asyncio.run(serve_gateway(gateway, host, port))
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _cmd_shard_status(args: argparse.Namespace) -> int:
    from .shard import ShardGateway

    with ShardGateway.from_any(
        args.gateway, replicas=args.replicas
    ) as gateway:
        status = gateway.status()
    print(f"cluster: {status['shards_up']}/{status['n_shards']} shard(s) "
          f"up, replicas={status['replicas']}")
    for sid, s in status["shards"].items():
        if s["up"]:
            print(f"  {sid:<24} up    {s['status']:<9} "
                  f"latency {s['latency_ms']:7.3f} ms  "
                  f"failovers {s['failovers']}  ({s['store']})")
        else:
            print(f"  {sid:<24} DOWN  {s['error']}")
    return 0 if status["shards_up"] == status["n_shards"] else 3


_SHARD_COMMANDS = {
    "serve": _cmd_shard_serve,
    "status": _cmd_shard_status,
}


def _cmd_shard(args: argparse.Namespace) -> int:
    return _SHARD_COMMANDS[args.shard_command](args)


def _cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile

    from .faults import ChaosHarness

    harness = ChaosHarness(seed=args.seed)
    reports = []
    if args.suite in ("store", "all"):
        with tempfile.TemporaryDirectory(prefix="wavesz-chaos-") as tmp:
            workdir = args.workdir if args.workdir is not None else tmp
            reports.append(
                harness.run_store(workdir, runs=args.schedules)
            )
            print(reports[-1].summary())
    if args.suite in ("service", "all"):
        reports.append(
            harness.run_service(runs=args.schedules // 25 + 2)
        )
        print(reports[-1].summary())
    if args.suite in ("shard", "all"):
        with tempfile.TemporaryDirectory(prefix="wavesz-chaos-") as tmp:
            workdir = args.workdir if args.workdir is not None else tmp
            reports.append(
                harness.run_shard(workdir, runs=args.schedules // 25 + 2)
            )
            print(reports[-1].summary())
    bad = [v for r in reports for v in r.violations]
    for v in bad[:20]:
        print(f"  {v}", file=sys.stderr)
    return 1 if bad else 0


_STORE_COMMANDS = {
    "put": _cmd_store_put,
    "get": _cmd_store_get,
    "slice": _cmd_store_slice,
    "ls": _cmd_store_ls,
    "gc": _cmd_store_gc,
    "fsck": _cmd_store_fsck,
}


def _cmd_store(args: argparse.Namespace) -> int:
    return _STORE_COMMANDS[args.store_command](args)


def _cmd_report(args: argparse.Namespace) -> int:
    from .fpga.report import synthesis_report

    print(synthesis_report(args.dims[0], args.dims[1],
                           base2=not args.base10))
    return 0


_COMMANDS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "info": _cmd_info,
    "datasets": _cmd_datasets,
    "generate": _cmd_generate,
    "archive": _cmd_archive,
    "extract": _cmd_extract,
    "report": _cmd_report,
    "verify": _cmd_verify,
    "codecs": _cmd_codecs,
    "serve": _cmd_serve,
    "batch": _cmd_batch,
    "store": _cmd_store,
    "shard": _cmd_shard,
    "chaos": _cmd_chaos,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
