"""Deterministic network fault plane for the service protocol.

:class:`FlakyConnection` wraps a connected socket and injects one fault
per connection at a seeded byte position in the *receive* stream — the
three ways a TCP peer actually hurts you:

* ``RESET`` — the connection dies mid-frame (``ConnectionResetError``);
* ``STALL`` — the peer goes silent and the read deadline expires
  (``TimeoutError``, exactly what ``socket.settimeout`` would raise);
* ``DRIP``  — bytes arrive one tiny chunk at a time, so a frame read
  that assumed one ``recv`` per field would mis-parse (a correct client
  loops; the drip proves it).

:class:`FlakySocketFactory` plugs into
:class:`~repro.service.client.ServiceClient`'s ``socket_factory`` hook
and draws a seeded fault for each of the first ``faulty_connections``
connections, then hands out clean sockets — so a client with retries
always converges, and a client without them demonstrably does not.
"""

from __future__ import annotations

import enum
import random
import socket
from dataclasses import dataclass
from typing import Any

__all__ = [
    "NetFaultKind",
    "NetFault",
    "FlakyConnection",
    "FlakySocketFactory",
]


class NetFaultKind(enum.Enum):
    RESET = "reset"  # ConnectionResetError after N received bytes
    STALL = "stall"  # read deadline expires after N received bytes
    DRIP = "drip"  # bytes arrive `chunk` at a time (no failure)


@dataclass(frozen=True)
class NetFault:
    """One connection-scoped fault: what goes wrong and where."""

    kind: NetFaultKind
    after_bytes: int = 0  # receive-stream position for RESET / STALL
    chunk: int = 1  # DRIP granularity


class FlakyConnection:
    """A socket wrapper that injects one seeded receive-path fault."""

    def __init__(self, sock: socket.socket, fault: NetFault | None = None):
        self._sock = sock
        self.fault = fault
        self.rx_bytes = 0

    def sendall(self, data: bytes) -> None:
        self._sock.sendall(data)

    def recv(self, n: int) -> bytes:
        f = self.fault
        if f is not None and f.kind is not NetFaultKind.DRIP:
            if self.rx_bytes >= f.after_bytes:
                self.fault = None  # one shot per connection
                self._sock.close()
                if f.kind is NetFaultKind.RESET:
                    raise ConnectionResetError(
                        "injected connection reset "
                        f"after {self.rx_bytes} bytes"
                    )
                raise TimeoutError(
                    f"injected stalled read after {self.rx_bytes} bytes"
                )
        if f is not None and f.kind is NetFaultKind.DRIP:
            n = min(n, max(1, f.chunk))
        data = self._sock.recv(n)
        self.rx_bytes += len(data)
        return data

    def settimeout(self, timeout: float | None) -> None:
        self._sock.settimeout(timeout)

    def close(self) -> None:
        self._sock.close()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._sock, name)


class FlakySocketFactory:
    """Seeded per-connection fault draws for a :class:`ServiceClient`.

    The first ``faulty_connections`` sockets each carry one fault drawn
    from ``kinds``; later connections are clean.  ``connections`` counts
    every socket handed out (the client's reconnect telemetry in tests).
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        faulty_connections: int = 1,
        kinds: tuple[NetFaultKind, ...] = (
            NetFaultKind.RESET, NetFaultKind.STALL, NetFaultKind.DRIP,
        ),
        max_after_bytes: int = 64,
    ) -> None:
        self._rng = random.Random(seed)
        self.faulty_connections = faulty_connections
        self.kinds = kinds
        self.max_after_bytes = max_after_bytes
        self.connections = 0
        self.faults_injected: list[NetFault] = []

    def __call__(
        self, host: str, port: int, timeout: float | None
    ) -> FlakyConnection:
        sock = socket.create_connection((host, port), timeout=timeout)
        self.connections += 1
        fault = None
        if self.connections <= self.faulty_connections:
            kind = self.kinds[self._rng.randrange(len(self.kinds))]
            fault = NetFault(
                kind=kind,
                after_bytes=self._rng.randrange(self.max_after_bytes + 1),
                chunk=1 + self._rng.randrange(3),
            )
            self.faults_injected.append(fault)
        return FlakyConnection(sock, fault)
