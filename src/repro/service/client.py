"""The blocking client of the service protocol.

:class:`ServiceClient` is what the CLI, the shard gateway, the CI smoke
test and anything else without an event loop speaks the wire with: one
socket, one typed method per op (the op table is in ``docs/API.md``).
"""

from __future__ import annotations

import os
import socket
import time
from typing import Any, Callable

import numpy as np

from ..errors import ServiceError, ServiceTimeoutError, ShapeError, TransportError
from . import wire
from .ops import lookup
from .resilience import CircuitBreaker, RetryPolicy

__all__ = ["ServiceClient", "stamped"]


def stamped(header: dict) -> dict:
    """``header`` with a request id, if its op is ``idempotent`` and it
    carries none yet.  The id belongs to the *request*: it is minted
    once, where the request is built, and every re-send of it (a retry
    in :meth:`ServiceClient._roundtrip`, the shard gateway's burst and
    then its second try) carries the same one — that is what lets the
    server's replay cache execute it at most once."""
    row = lookup(header)
    if row is not None and row.idempotent and "req_id" not in header:
        # 128 random bits: a uuid4's worth, without building the UUID
        return {**header, "req_id": os.urandom(16).hex()}
    return header


def _default_socket_factory(
    host: str, port: int, timeout: float | None
) -> Any:
    return socket.create_connection((host, port), timeout=timeout)


class ServiceClient:
    """Blocking client for the service protocol (one socket, many ops).

    Resilient by default: every op runs under a per-request deadline
    (``timeout`` seconds of wall clock covering all socket reads, not
    just connect), wire failures retry with seeded jittered backoff on a
    fresh connection, and a :class:`CircuitBreaker` refuses calls fast
    once the server looks down.  Every op the table marks ``idempotent``
    carries a generated request id; the server executes each id at most
    once, so a retry after a lost ack replays the cached response
    instead of double-running the job.

    ``socket_factory`` is the chaos seam: anything callable as
    ``(host, port, timeout) -> socket-like`` (see
    :class:`repro.faults.netsim.FlakySocketFactory`).
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8123,
        timeout: float = 60.0,
        *,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        socket_factory: Callable[..., Any] | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.retries = 0  # wire-level retries performed (telemetry)
        self._socket_factory = (
            socket_factory if socket_factory is not None
            else _default_socket_factory
        )
        self._sock: Any = None
        self._connect()  # eager: surface a dead server at construction

    def _connect(self) -> None:
        if self._sock is None:
            self._sock = self._socket_factory(
                self.host, self.port, self.timeout
            )

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close races
                pass
            self._sock = None

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- framing ---------------------------------------------------------

    def _send(self, header: dict, body: bytes = b"") -> None:
        """Connect if needed and put one request frame on the wire."""
        self._connect()
        self._sock.sendall(wire.pack(header, body))

    def _receive(self, deadline: float) -> tuple[dict, bytearray]:
        """Read the one reply the last :meth:`_send` is owed; its body is
        the buffer it was received into."""
        reply = wire.recv_frame(self._sock, deadline)
        # an application-level error still proves the server is alive —
        # the breaker only tracks transport outcomes.
        self.breaker.record_success()
        return reply

    def _once(
        self, header: dict, body: bytes, deadline: float
    ) -> tuple[dict, bytearray]:
        """One wire attempt: its two halves back to back.  (The shard
        gateway runs them apart: it sends to every shard before it
        receives from any.)  When either half raises, the caller must
        drop the connection — where the next reply starts is unknown."""
        self._send(header, body)
        return self._receive(deadline)

    def _roundtrip(
        self, header: dict, body: bytes = b"", *, spent: int = 0
    ) -> tuple[dict, bytearray]:
        """One request under the retry budget.  ``spent`` is how many of
        the budget's attempts the caller already made and lost itself
        (the shard gateway's burst is the first try of its requests)."""
        header = stamped(header)
        op = str(header.get("op"))
        req_id = header.get("req_id", "-")
        attempt = spent
        while True:
            attempt += 1
            self.breaker.allow()  # raises CircuitOpenError when open
            deadline = time.monotonic() + self.timeout
            try:
                return self._once(header, body, deadline)
            except (socket.timeout, TimeoutError) as exc:
                err: ServiceError = ServiceTimeoutError(
                    f"{op} (request {req_id}) hit its {self.timeout:g}s "
                    f"deadline on attempt {attempt}: {exc}"
                )
                cause: BaseException = exc
            except (ConnectionError, OSError) as exc:
                err = TransportError(
                    f"{op} (request {req_id}) wire failure on attempt "
                    f"{attempt}: {type(exc).__name__}: {exc}"
                )
                cause = exc
            except ServiceError:
                # unreadable response frame: the stream position is lost
                self._drop_connection()
                raise
            self.breaker.record_failure()
            self._drop_connection()
            if not self.retry.should_retry(attempt):
                raise err from cause
            self.retries += 1
            time.sleep(self.retry.delay(attempt))

    _check = staticmethod(wire.check_response)

    def _call(
        self, op: str, body: bytes = b"", **fields: Any
    ) -> tuple[dict, bytearray]:
        """One checked round trip: the ``ok`` response header and body."""
        resp, rbody = self._roundtrip({"op": op, **fields}, body)
        return self._check(resp), rbody

    # -- ops -------------------------------------------------------------

    def ping(self) -> dict:
        return self._call("ping")[0]

    def health(self) -> dict:
        """Liveness + readiness: status, queue depth, pool restarts."""
        return self._call("health")[0]

    def codecs(self) -> dict:
        return self._call("codecs")[0]

    def stats(self) -> dict:
        return self._call("stats")[0]["stats"]

    def compress(
        self,
        data: np.ndarray,
        codec: str = "wavesz",
        eb: float = 1e-3,
        mode: str = "vr_rel",
        *,
        priority: int = 0,
        deadline_s: float | None = None,
        tiles: int = 1,
    ) -> tuple[bytes, dict]:
        """Compress one field; returns (payload, response header).

        ``tiles > 1`` requests a tiled compression; dp-capable codecs
        spread the bands across the server's worker pool.
        """
        data = np.ascontiguousarray(data)
        resp, payload = self._call(
            "compress", wire.encode_field(data),
            codec=codec, eb=eb, mode=mode,
            shape=list(data.shape), dtype=wire.dtype_name(data.dtype),
            priority=priority, deadline_s=deadline_s, tiles=tiles,
        )
        return bytes(payload), resp

    def decompress(self, payload: bytes) -> np.ndarray:
        return wire.decode_field(*self._call("decompress", payload))

    # -- store ops --------------------------------------------------------

    def store_put(
        self,
        name: str,
        data: np.ndarray,
        codec: str = "wavesz",
        eb: float = 1e-3,
        mode: str = "vr_rel",
        *,
        n_tiles: int = 4,
    ) -> dict:
        """Persist one field in the server's store; returns the put report."""
        data = np.ascontiguousarray(data)
        return self._call(
            "store_put", wire.encode_field(data),
            name=name, codec=codec, eb=eb, mode=mode, n_tiles=n_tiles,
            shape=list(data.shape), dtype=wire.dtype_name(data.dtype),
        )[0]

    def store_read(
        self, name: str, *, strict: bool = True
    ) -> tuple[np.ndarray, dict]:
        """Read a full stored field; returns (field, response header).

        With ``strict=False`` the header's ``"damaged"`` list names any
        tile indices that were lost (their rows come back zero-filled).
        """
        resp, body = self._call("store_read", name=name, strict=strict)
        return wire.decode_field(resp, body), resp

    def store_slice(
        self, name: str, slices, *, strict: bool = True
    ) -> tuple[np.ndarray, dict]:
        """Read a sub-window of a stored field, decoding only its tiles.

        ``slices`` is a per-axis sequence of unit-step ``slice``
        objects, ``(start, stop)`` pairs or ``None`` (full axis);
        trailing axes default to their full extent.
        """
        for axis, s in enumerate(slices):
            if isinstance(s, slice) and s.step not in (None, 1):
                raise ShapeError(
                    f"axis {axis}: only unit-step slices, got {s.step}"
                )
        window = [
            None if s is None
            else [s.start, s.stop] if isinstance(s, slice)
            else [s[0], s[1]]
            for s in slices
        ]
        resp, body = self._call(
            "store_slice", name=name, slices=window, strict=strict
        )
        return wire.decode_field(resp, body), resp

    def store_ls(self) -> list[dict]:
        rows = self._call("store_ls")[0]["datasets"]
        for r in rows:
            r["shape"] = tuple(r["shape"])
        return rows

    def store_gc(self, refs=()) -> dict:
        """Garbage-collect the remote store, keeping ``refs`` digests too.

        A sharded deployment must pass the cluster-wide referenced set:
        this shard may hold tiles whose manifests live on other shards.
        """
        return self._call("store_gc", refs=[str(r) for r in refs])[0]

    # The shard-facing primitives (``store_get_object``, ``store_put_object``,
    # ``store_has_objects``, ``store_get_manifest``, ``store_put_manifest``)
    # have no typed method: the shard gateway is their one client and reads
    # their reply headers itself (``ShardGateway._burst``).

    def shard_map(self) -> dict:
        """The cluster topology this server belongs to (gateway op)."""
        return self._call("shard_map")[0]["shard_map"]
