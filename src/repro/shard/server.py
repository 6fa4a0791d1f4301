"""A TCP front for one :class:`~repro.shard.gateway.ShardGateway`.

``GatewayServer`` is the service's connection loop
(:class:`~repro.service.server.WireServer`) with the gateway as its
store and no scheduler, so a plain
:class:`~repro.service.client.ServiceClient` works against it unchanged:
the dataset-level store ops hit the replicated sharded store, the
topology op hands out the cluster map (how shard-aware clients
bootstrap), and the health op aggregates per-shard liveness, latency and
failover counters.

The gateway object is blocking and single-threaded, so the server
funnels every store call through one ``asyncio.Lock`` — the shards work
in parallel *inside* one call (the gateway's burst), not across
requests.  ``wavesz shard serve`` is the CLI entry point.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from ..service.server import WireServer, _keep_freed_heap, run_until_sigterm
from .gateway import ShardGateway

__all__ = ["GatewayServer", "serve_gateway"]


class GatewayServer(WireServer):
    """Asyncio TCP server delegating the store ops to a shard gateway."""

    def __init__(
        self,
        gateway: ShardGateway,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host, port, gateway.metrics)
        self.gateway = self.store = gateway
        self.shard_map = gateway.map.to_dict()
        self._lock = asyncio.Lock()

    async def _shutdown(self, deadline_s: float | None) -> None:
        self.gateway.close()

    async def blocking(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        async with self._lock:
            return await super().blocking(fn, *args, **kwargs)

    def ping(self) -> dict:
        return {**super().ping(), "role": "shard-gateway"}

    async def health(self) -> dict:
        status = await self.blocking(self.gateway.status)
        snap = self.metrics.snapshot()
        return {
            **await super().health(),
            "status": (
                "ok" if status["shards_up"] == status["n_shards"]
                else "degraded" if status["shards_up"] else "down"
            ),
            "gauges": snap.gauges,
            "events": snap.events,
            **status,
        }


async def serve_gateway(
    gateway: ShardGateway, host: str = "127.0.0.1", port: int = 8124
) -> None:
    """Run a gateway server until cancelled (the ``wavesz shard serve``
    body); SIGTERM closes the listener and the per-shard clients."""
    _keep_freed_heap()
    server = GatewayServer(gateway, host, port)
    await server.start()
    print(
        f"wavesz shard gateway listening on {server.host}:{server.port} "
        f"({len(gateway.map.shard_ids)} shard(s), "
        f"replicas={gateway.map.replicas})",
        flush=True,
    )
    await run_until_sigterm(server)
