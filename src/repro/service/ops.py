"""The wire-op table: every op the service protocol knows, in one place.

:data:`OPS` maps an op name to its handler plus the facts the server
loop and the client act on — what the op ``needs`` from the server that
answers it, whether a retry must not re-execute it (``idempotent``: the
client tags it with a request id, the server deduplicates), whether a
draining server refuses it, and whether a large request body may be
ingested straight into the shm arena.  ``docs/API.md`` carries the same
table for humans, and a test keeps the two in step.

A handler is ``async (server, header, body) -> response frame``.  The
store handlers are written once against :class:`~repro.store.TileStore`
(``put`` / ``read`` / ``read_slice`` / ``ls``, and the one ``gc``
signature its two object layers share), which
:class:`~repro.store.ArrayStore` and
:class:`~repro.shard.gateway.ShardGateway` both are, so ``wavesz serve
--store`` and ``wavesz shard serve`` answer them with the same code;
neither package is imported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Awaitable, Callable

import numpy as np

from ..codec.registry import REGISTRY
from ..errors import ServiceError
from .jobs import make_job
from .wire import decode_field, encode_field, pack, refusal_frame

__all__ = ["Op", "OPS", "lookup"]

Handler = Callable[[Any, dict, Any], Awaitable[bytes]]


@dataclass(frozen=True)
class Op:
    """One row of the op table."""

    handler: Handler
    #: server attribute the op cannot run without: "scheduler" / "store"
    needs: str | None = None
    #: must not double-execute when a client retries after a wire
    #: failure (the request may have run even though the ack was lost)
    idempotent: bool = False
    refused_while_draining: bool = False
    #: a large request body may stream socket → shm segment
    ingest_to_arena: bool = False


async def _ping(srv: Any, header: dict, body: Any) -> bytes:
    return pack(srv.ping())


async def _health(srv: Any, header: dict, body: Any) -> bytes:
    return pack({"ok": True, **await srv.health()})


async def _codecs(srv: Any, header: dict, body: Any) -> bytes:
    return pack({"ok": True, "codecs": REGISTRY.describe(),
                 "short_names": list(REGISTRY.short_names())})


async def _stats(srv: Any, header: dict, body: Any) -> bytes:
    return pack({"ok": True, "stats": srv.scheduler.stats().to_dict()})


async def _shard_map(srv: Any, header: dict, body: Any) -> bytes:
    if srv.shard_map is None:
        return refusal_frame(
            "shard-map-not-configured", "server is not part of a sharded store"
        )
    return pack({"ok": True, "shard_map": srv.shard_map})


async def _compress(srv: Any, header: dict, body: Any) -> bytes:
    # an ndarray body is the shm view the server ingested the socket
    # into: validated and shaped there, it reaches the job uncopied
    data = body if isinstance(body, np.ndarray) else decode_field(header, body)
    job = make_job(
        str(header.get("codec", "wavesz")),
        data,
        eb=float(header.get("eb", 1e-3)),
        mode=str(header.get("mode", "vr_rel")),
        priority=int(header.get("priority", 0)),
        deadline_s=(
            float(header["deadline_s"])
            if header.get("deadline_s") is not None else None
        ),
        n_tiles=int(header.get("tiles", 1)),
    )
    handle = await srv.scheduler.submit(job)  # raises QueueFullError
    result = await srv.scheduler.wait(handle)
    assert isinstance(result.output, bytes)
    s = result.stats
    return pack(
        {
            "ok": True,
            "job_id": result.job_id,
            "codec": result.codec,
            "attempts": result.attempts,
            "latency_s": result.total_s,
            "ratio": s.ratio if s is not None else None,
        },
        result.output,
    )


async def _decompress(srv: Any, header: dict, body: Any) -> bytes:
    if not body:
        raise ServiceError("decompress needs a payload body")
    job = make_job("auto", op="decompress", payload=body)
    handle = await srv.scheduler.submit(job)
    result = await srv.scheduler.wait(handle)
    out = result.output
    assert isinstance(out, np.ndarray)
    return pack(
        {
            "ok": True,
            "job_id": result.job_id,
            "shape": list(out.shape),
            "dtype": str(out.dtype),
            "latency_s": result.total_s,
        },
        encode_field(out),
    )


# -- store ops -----------------------------------------------------------------


#: what a put reports, read off its ``PutResult``; the last four keep
#: their defaults unless a replicated commit made the put
_PUT_REPORT = (
    "name", "codec", "n_tiles", "new_objects", "dedup_objects",
    "stored_bytes", "dedup_bytes", "ratio",
    "version", "replicas", "degraded", "per_shard",
)


async def _store_put(srv: Any, header: dict, body: Any) -> bytes:
    result = await srv.blocking(
        srv.store.put,
        str(header.get("name", "")),
        decode_field(header, body),
        str(header.get("codec", "wavesz")),
        float(header.get("eb", 1e-3)),
        str(header.get("mode", "vr_rel")),
        n_tiles=int(header.get("n_tiles", 4)),
    )
    return pack({"ok": True, **{k: getattr(result, k) for k in _PUT_REPORT}})


def _pack_read(result: Any) -> bytes:
    out = result.data
    return pack(
        {
            "ok": True,
            "shape": list(out.shape),
            "dtype": str(out.dtype),
            "tiles": list(result.tile_indices),
            "damaged": list(result.damaged_tiles),
        },
        encode_field(out),
    )


async def _store_read(srv: Any, header: dict, body: Any) -> bytes:
    return _pack_read(await srv.blocking(
        srv.store.read,
        str(header.get("name", "")),
        strict=bool(header.get("strict", True)),
    ))


async def _store_slice(srv: Any, header: dict, body: Any) -> bytes:
    raw = header.get("slices")
    if not isinstance(raw, list):
        raise ServiceError(
            f"store_slice needs a per-axis slices list, got {raw!r}"
        )
    window = tuple(
        None if s is None else (s[0], s[1])
        if isinstance(s, list) and len(s) == 2 else s
        for s in raw
    )
    return _pack_read(await srv.blocking(
        srv.store.read_slice,
        str(header.get("name", "")),
        window,
        strict=bool(header.get("strict", True)),
    ))


async def _store_ls(srv: Any, header: dict, body: Any) -> bytes:
    return pack({"ok": True, "datasets": await srv.blocking(srv.store.ls)})


async def _store_gc(srv: Any, header: dict, body: Any) -> bytes:
    refs = header.get("refs", [])
    if not isinstance(refs, list):
        raise ServiceError(f"store_gc refs must be a list, got {refs!r}")
    result = await srv.blocking(
        srv.store.gc, extra_refs=[str(r) for r in refs]
    )
    return pack({
        "ok": True,
        "removed": result.n_removed,
        "reclaimed_bytes": result.reclaimed_bytes,
        "kept": result.kept,
        "tmp_removed": len(result.tmp_removed),
        # a cluster-wide sweep's breakdown; a lone store has none
        **({"per_shard": result.per_shard} if result.per_shard else {}),
    })


# The shard-facing primitives: raw content-addressed blob and manifest
# transfer, what a gateway speaks to each shard.  Only a local store has
# them — a gateway *is* the client of these ops, not a server for them.


def _object_store(srv: Any) -> Any:
    if not hasattr(srv.store, "put_object"):
        raise ServiceError(
            "raw object and manifest ops are served by the shards, "
            "not by a gateway"
        )
    return srv.store


async def _store_get_object(srv: Any, header: dict, body: Any) -> bytes:
    blob = await srv.blocking(
        _object_store(srv).get_object, str(header.get("digest", ""))
    )
    return pack({"ok": True}, blob)


async def _store_put_object(srv: Any, header: dict, body: Any) -> bytes:
    digest, stored = await srv.blocking(
        _object_store(srv).put_object,
        body,
        str(header["digest"]) if header.get("digest") is not None else None,
        overwrite=bool(header.get("overwrite", False)),
    )
    return pack({"ok": True, "digest": digest, "stored": stored})


async def _store_has_objects(srv: Any, header: dict, body: Any) -> bytes:
    digests = header.get("digests", [])
    if not isinstance(digests, list):
        raise ServiceError(
            f"store_has_objects digests must be a list, got {digests!r}"
        )
    have = await srv.blocking(
        _object_store(srv).has_objects, [str(d) for d in digests]
    )
    return pack({"ok": True, "have": have})


async def _store_get_manifest(srv: Any, header: dict, body: Any) -> bytes:
    store, name = _object_store(srv), str(header.get("name", ""))
    want = header.get("if_digest")
    # a conditional request the store's parsed-manifest memo can vouch
    # for is answered here, on the event loop: one stat, no thread hop
    if want is not None and store.manifest_unchanged(name, want):
        return pack({"ok": True, "unchanged": True})
    m, digest = await srv.blocking(store.manifest_with_digest, name)
    if digest == want:
        return pack({"ok": True, "unchanged": True})
    return pack({"ok": True, "manifest": m})


async def _store_put_manifest(srv: Any, header: dict, body: Any) -> bytes:
    manifest = header.get("manifest")
    if not isinstance(manifest, dict):
        raise ServiceError(
            "store_put_manifest needs a manifest object in the header"
        )
    name = str(header.get("name", ""))
    await srv.blocking(_object_store(srv).put_manifest, name, manifest)
    return pack({"ok": True, "name": name})


def _work(handler: Handler, needs: str, **flags: bool) -> Op:
    """An op that changes state or costs real work: retried under a
    request id and refused by a draining server."""
    return Op(handler, needs, idempotent=True, refused_while_draining=True,
              **flags)


OPS: dict[str, Op] = {
    "ping": Op(_ping),
    "health": Op(_health),
    "codecs": Op(_codecs),
    "stats": Op(_stats, "scheduler"),
    "shard_map": Op(_shard_map),
    "compress": _work(_compress, "scheduler", ingest_to_arena=True),
    "decompress": _work(_decompress, "scheduler"),
    "store_put": _work(_store_put, "store"),
    "store_read": Op(_store_read, "store"),
    "store_slice": Op(_store_slice, "store"),
    "store_ls": Op(_store_ls, "store"),
    # re-running a sweep is harmless, so no request id — but a draining
    # server must not start one
    "store_gc": Op(_store_gc, "store", refused_while_draining=True),
    "store_get_object": Op(_store_get_object, "store"),
    "store_put_object": _work(_store_put_object, "store"),
    "store_has_objects": Op(_store_has_objects, "store"),
    "store_get_manifest": Op(_store_get_manifest, "store"),
    "store_put_manifest": _work(_store_put_manifest, "store"),
}


def lookup(header: dict) -> Op | None:
    """The table row a request header names, if any."""
    name = header.get("op")
    return OPS.get(name) if isinstance(name, str) else None
