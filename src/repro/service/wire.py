"""The frame format of the service protocol, and nothing else.

One frame, both directions::

    4 bytes  big-endian uint32   JSON header length
    N bytes  UTF-8 JSON object   the request / response header
    M bytes  raw body            present iff header["body_len"] == M

Requests carry ``{"op": ...}`` plus op fields (the op table is
:data:`repro.service.ops.OPS`, documented in ``docs/API.md``); responses
carry ``{"ok": true, ...}`` or an error envelope ``{"ok": false, "error":
NAME, "detail": TEXT}``.  Fields cross as raw little-endian C-order
values described by ``shape`` / ``dtype`` header keys.

Everything that reads a frame — the asyncio server loop, the blocking
client — goes through this module, so a malformed frame is the same
:class:`~repro.errors.ServiceError` whoever reads it.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time
from typing import Any

import numpy as np

from ..errors import (
    ChecksumError,
    ContainerError,
    DTypeError,
    QueueFullError,
    ReproError,
    ServiceError,
    ShapeError,
    StoreError,
)
from ..streams import MAX_FIELD_POINTS, values_from_bytes, values_to_bytes

__all__ = [
    "pack", "read_header", "read_frame", "recv_exact", "recv_frame",
    "encode_field", "decode_field", "check_field",
    "error_frame", "refusal_frame", "check_response",
]

_LEN = struct.Struct(">I")
#: Largest accepted frame header/body (a full float64 field at the
#: library's point cap) — anything bigger is a protocol error, not a job.
MAX_BODY = MAX_FIELD_POINTS * 8
MAX_HEADER = 1 << 20


def pack(header: dict, body: bytes = b"") -> bytes:
    if body:
        header = {**header, "body_len": len(body)}
    j = json.dumps(header).encode()
    return _LEN.pack(len(j)) + j + body


def _header_len(raw: bytes) -> int:
    (hlen,) = _LEN.unpack(raw)
    if not 0 < hlen <= MAX_HEADER:
        raise ServiceError(f"frame header length {hlen} out of range")
    return hlen


def _parse_header(raw: bytes) -> tuple[dict, int]:
    try:
        header = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ServiceError(f"frame header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ServiceError("frame header is not a JSON object")
    body_len = header.get("body_len", 0)
    if body_len and (
        not isinstance(body_len, int) or not 0 < body_len <= MAX_BODY
    ):
        raise ServiceError(f"frame body length {body_len!r} out of range")
    return header, int(body_len or 0)


async def read_header(reader: asyncio.StreamReader) -> tuple[dict, int]:
    """Read one frame's header and validated body length (body not read)."""
    hlen = _header_len(await reader.readexactly(_LEN.size))
    return _parse_header(await reader.readexactly(hlen))


async def read_frame(reader: asyncio.StreamReader) -> tuple[dict, bytes]:
    header, body_len = await read_header(reader)
    body = await reader.readexactly(body_len) if body_len else b""
    return header, body


def recv_exact(sock: Any, n: int, deadline: float) -> bytes:
    """Read exactly ``n`` bytes from a blocking socket, spending at most
    the time left until ``deadline`` — the timeout is re-armed before
    *every* recv so a byte-dripping peer cannot stretch one request past
    its budget.

    Uses ``recv_into`` against one preallocated buffer, so a large body
    lands in place instead of accumulating per-chunk ``bytes`` objects
    joined at the end.  Socket doubles without ``recv_into`` (the chaos
    seam's :class:`~repro.faults.netsim.FlakyConnection`) fall back to
    plain ``recv``.
    """
    buf = bytearray(n)
    view = memoryview(buf)
    # Resolved on the *type*: fault-injection wrappers (FlakyConnection)
    # delegate unknown attributes to the real socket, and an instance
    # getattr would sidestep their seam entirely.
    recv_into = sock.recv_into if hasattr(type(sock), "recv_into") else None
    got = 0
    while got < n:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("request deadline expired mid-read")
        sock.settimeout(remaining)
        want = min(n - got, 1 << 20)
        if recv_into is not None:
            k = recv_into(view[got:got + want])
        else:
            chunk = sock.recv(want)
            k = len(chunk)
            view[got:got + k] = chunk
        if not k:
            raise ConnectionResetError("peer closed the connection mid-frame")
        got += k
    return bytes(buf)


def recv_frame(sock: Any, deadline: float) -> tuple[dict, bytes]:
    """The blocking twin of :func:`read_frame`, under one deadline."""
    hlen = _header_len(recv_exact(sock, _LEN.size, deadline))
    header, body_len = _parse_header(recv_exact(sock, hlen, deadline))
    return header, recv_exact(sock, body_len, deadline)


# -- fields ------------------------------------------------------------------


def encode_field(data: np.ndarray) -> bytes:
    """A field's wire body: its values, C order, little-endian."""
    return values_to_bytes(data)


def check_field(
    header: dict, body_len: int
) -> tuple[tuple[int, ...], np.dtype]:
    """The ``shape`` / ``dtype`` a header declares for its field body,
    refused unless ``body_len`` bytes hold exactly that field (whether a
    codec takes it, e.g. an empty one, is the field contract's call)."""
    try:
        shape = tuple(int(d) for d in header.get("shape", ()))
        dtype = np.dtype(str(header.get("dtype", "float32")))
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"bad field shape/dtype in header: {exc}") from exc
    n = int(np.prod(shape, dtype=np.int64))
    if any(d < 0 for d in shape) or n > MAX_FIELD_POINTS:
        raise ServiceError(f"bad field shape {shape!r}")
    if body_len != n * dtype.itemsize:
        raise ServiceError(
            f"body holds {body_len} bytes, shape {shape} needs "
            f"{n * dtype.itemsize}"
        )
    return shape, dtype


def decode_field(header: dict, body: bytes) -> np.ndarray:
    """The inverse of :func:`encode_field` against the frame's header."""
    shape, dtype = check_field(header, len(body))
    return values_from_bytes(body, len(body) // dtype.itemsize, dtype).reshape(shape)


# -- the error envelope ------------------------------------------------------


def refusal_frame(error: str, detail: str, **extra: Any) -> bytes:
    """An answered refusal that is a server state, not an exception."""
    return pack({"ok": False, "error": error, "detail": detail, **extra})


def error_frame(exc: ReproError, op: Any, req_id: Any) -> bytes:
    """A typed failure: the client re-raises the same taxonomy
    (StoreError, ChecksumError, ...) with op + request id kept, so
    retry/failover classification works end to end."""
    return refusal_frame(
        type(exc).__name__, str(exc),
        op=str(op), req_id=str(req_id),
    )


#: Wire error names that re-raise as their local exception type, so a
#: caller (gateway, CLI) classifies a remote store failure exactly like a
#: local one.  Anything unlisted stays a generic ServiceError.
_WIRE_ERRORS: dict[str, type[ReproError]] = {
    "StoreError": StoreError,
    "ChecksumError": ChecksumError,
    "ContainerError": ContainerError,
    "ShapeError": ShapeError,
    "DTypeError": DTypeError,
}


def check_response(resp: dict) -> dict:
    """Return an ``ok`` response header; raise what an error one names."""
    if resp.get("ok"):
        return resp
    name = resp.get("error", "error")
    if name == "queue-full":
        raise QueueFullError(resp.get("detail", "queue full"))
    context = ""
    if resp.get("op"):
        context = f" [op {resp['op']}, request {resp.get('req_id', '-')}]"
    exc_type = _WIRE_ERRORS.get(str(name))
    if exc_type is not None:
        raise exc_type(f"{resp.get('detail', '')}{context}")
    raise ServiceError(f"{name}: {resp.get('detail', '')}{context}")
