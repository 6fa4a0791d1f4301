"""The wire-op table: every op the service protocol knows, in one place.

:data:`OPS` maps an op name to its handler plus the facts the server
loop and the client act on — what the op ``needs`` from the server that
answers it, whether a retry must not re-execute it (``idempotent``: the
client tags it with a request id, the server deduplicates), whether a
draining server refuses it, and whether a large request body may be
ingested straight into the shm arena.  ``docs/API.md`` carries the same
table for humans, and a test keeps the two in step.

A handler is ``async (server, body, *, <field>: <type> = <default>, ...)
-> response frame``: its keyword-only parameters are the op's request
fields (one without a default is required), and :meth:`Op.parse` checks
a header against them once, before the handler runs.  The store
handlers are written once against :class:`~repro.store.TileStore`
(``put`` / ``read`` / ``read_slice`` / ``ls``, and the one ``gc``
signature its two object layers share), which
:class:`~repro.store.ArrayStore` and
:class:`~repro.shard.gateway.ShardGateway` both are, so ``wavesz serve
--store`` and ``wavesz shard serve`` answer them with the same code;
neither package is imported here.
"""

from __future__ import annotations

import inspect
import sys
import types
import typing
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

import numpy as np

from ..codec.registry import REGISTRY
from ..errors import ServiceError
from .jobs import make_job
from .wire import decode_field, dtype_name, encode_field, pack, refusal_frame

__all__ = ["Op", "OPS", "lookup"]

Handler = Callable[..., Awaitable[bytes]]

#: what a field check returns for a value its type does not admit
_BAD = object()


def _check_of(tp: Any) -> Callable[[Any], Any]:
    """The wire check of one annotation: the value it admits (a ``float``
    field's JSON integer as a float), or ``_BAD``."""
    args = typing.get_args(tp)
    if tp is int:  # a JSON integer: bool is an int subclass, not one
        return lambda v: v if type(v) is int else _BAD
    if tp is float:  # finite: NaN fails the comparison, and so does a huge int
        return lambda v: (float(v) if type(v) in (int, float)
                          and abs(v) <= sys.float_info.max else _BAD)
    if type(None) in args:  # X | None
        some = _check_of(next(a for a in args if a is not type(None)))
        return lambda v: v if v is None else some(v)
    if typing.get_origin(tp) is list:
        each = _check_of(args[0])
        return lambda v: (v if isinstance(v, list)
                          and all(each(x) is not _BAD for x in v) else _BAD)
    assert isinstance(tp, type), f"no wire check for a field of type {tp!r}"
    return lambda v: v if isinstance(v, tp) else _BAD


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
    #: the request fields by name: the handler's keyword-only parameters
    fields: types.MappingProxyType = field(init=False, compare=False)
    _checks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        params = inspect.signature(self.handler, eval_str=True).parameters
        fields = {n: p for n, p in params.items() if p.kind is p.KEYWORD_ONLY}
        object.__setattr__(self, "fields", types.MappingProxyType(fields))
        object.__setattr__(self, "_checks", tuple(
            (n, _check_of(p.annotation), p.default is p.empty,
             inspect.formatannotation(p.annotation)) for n, p in fields.items()
        ))

    def parse(self, header: dict) -> dict[str, Any]:
        """The handler's keyword arguments, read from ``header``.  A
        missing required field or a value its type does not admit is a
        :class:`ServiceError` naming the op, the field, the type and the
        value; keys outside the row are the frame's, and ignored."""
        kwargs = {}
        for name, check, required, expected in self._checks:
            if name in header:
                kwargs[name] = check(header[name])
            elif required:
                kwargs[name] = _BAD
            if kwargs.get(name) is _BAD:
                got = repr(header[name]) if name in header else "nothing"
                raise ServiceError(f"{header.get('op')} field {name!r} must "
                                   f"be {expected}, got {got:.80}")
        return kwargs


async def _ping(srv: Any, body: Any) -> bytes:
    return pack(srv.ping())


async def _health(srv: Any, body: Any) -> bytes:
    return pack({"ok": True, **await srv.health()})


async def _codecs(srv: Any, body: Any) -> bytes:
    return pack({"ok": True, "codecs": REGISTRY.describe(),
                 "short_names": list(REGISTRY.short_names())})


async def _stats(srv: Any, body: Any) -> bytes:
    return pack({"ok": True, "stats": srv.scheduler.stats().to_dict()})


async def _shard_map(srv: Any, body: Any) -> bytes:
    if srv.shard_map is None:
        return refusal_frame(
            "shard-map-not-configured", "server is not part of a sharded store"
        )
    return pack({"ok": True, "shard_map": srv.shard_map})


async def _compress(
    srv: Any, body: Any, *, shape: list[int], dtype: str = "float32",
    codec: str = "wavesz", eb: float = 1e-3, mode: str = "vr_rel",
    priority: int = 0, deadline_s: float | None = None, tiles: int = 1,
) -> bytes:
    # an ndarray body is the shm view the server ingested the socket
    # into: validated and shaped there, it reaches the job uncopied
    data = body if isinstance(body, np.ndarray) else decode_field(
        {"shape": shape, "dtype": dtype}, body)
    job = make_job(codec, data, eb=eb, mode=mode, priority=priority,
                   deadline_s=deadline_s, n_tiles=tiles)
    result = await srv.scheduler.run(job)  # raises QueueFullError
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


async def _decompress(srv: Any, body: Any) -> bytes:
    if not body:
        raise ServiceError("decompress needs a payload body")
    result = await srv.scheduler.run(make_job("auto", op="decompress", payload=body))
    out = result.output
    assert isinstance(out, np.ndarray)
    return pack(
        {
            "ok": True,
            "job_id": result.job_id,
            "shape": list(out.shape),
            "dtype": dtype_name(out.dtype),
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


async def _store_put(
    srv: Any, body: Any, *, name: str, shape: list[int],
    dtype: str = "float32", codec: str = "wavesz", eb: float = 1e-3,
    mode: str = "vr_rel", n_tiles: int = 4,
) -> bytes:
    data = decode_field({"shape": shape, "dtype": dtype}, body)
    result = await srv.blocking(srv.store.put, name, data, codec, eb, mode, n_tiles=n_tiles)
    return pack({"ok": True, **{k: getattr(result, k) for k in _PUT_REPORT}})


def _pack_read(result: Any) -> bytes:
    out = result.data
    return pack(
        {
            "ok": True,
            "shape": list(out.shape),
            "dtype": dtype_name(out.dtype),
            "tiles": list(result.tile_indices),
            "damaged": list(result.damaged_tiles),
        },
        encode_field(out),
    )


async def _store_read(srv: Any, body: Any, *, name: str, strict: bool = True) -> bytes:
    return _pack_read(await srv.blocking(srv.store.read, name, strict=strict))


async def _store_slice(
    srv: Any, body: Any, *, name: str, slices: list, strict: bool = True
) -> bytes:
    return _pack_read(await srv.blocking(srv.store.read_slice, name, slices, strict=strict))


async def _store_ls(srv: Any, body: Any) -> bytes:
    return pack({"ok": True, "datasets": await srv.blocking(srv.store.ls)})


async def _store_gc(srv: Any, body: Any, *, refs: list[str] = ()) -> bytes:
    result = await srv.blocking(srv.store.gc, extra_refs=refs)
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


async def _store_get_object(srv: Any, body: Any, *, digest: str) -> bytes:
    blob = await srv.blocking(_object_store(srv).get_object, digest)
    return pack({"ok": True}, blob)


async def _store_put_object(
    srv: Any, body: Any, *, digest: str | None = None, overwrite: bool = False
) -> bytes:
    digest, stored = await srv.blocking(
        _object_store(srv).put_object, body, digest, overwrite=overwrite
    )
    return pack({"ok": True, "digest": digest, "stored": stored})


async def _store_has_objects(srv: Any, body: Any, *, digests: list[str] = ()) -> bytes:
    have = await srv.blocking(_object_store(srv).has_objects, digests)
    return pack({"ok": True, "have": have})


async def _store_get_manifest(
    srv: Any, body: Any, *, name: str, if_digest: str | None = None
) -> bytes:
    store = _object_store(srv)
    # a conditional request the store's parsed-manifest memo can vouch
    # for is answered here, on the event loop: one stat, no thread hop
    if if_digest is not None and store.manifest_unchanged(name, if_digest):
        return pack({"ok": True, "unchanged": True})
    m, digest = await srv.blocking(store.manifest_with_digest, name)
    if digest == if_digest:
        return pack({"ok": True, "unchanged": True})
    return pack({"ok": True, "manifest": m})


async def _store_put_manifest(srv: Any, body: Any, *, name: str, manifest: dict) -> bytes:
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
