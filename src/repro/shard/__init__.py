"""Horizontal scaling for the store: consistent hashing, replication,
failover.

``repro.shard`` turns N plain ``wavesz serve --store`` servers into the
object layer of one logical :class:`~repro.store.TileStore`:

    from repro.shard import ShardGateway, ShardMap

    gw = ShardGateway(ShardMap.from_addresses(
        "127.0.0.1:8201,127.0.0.1:8202,127.0.0.1:8203", replicas=2))
    gw.put("run42.TS", field, codec="wavesz", eb=1e-3, n_tiles=12)
    part = gw.read_slice("run42.TS", (slice(10, 20),)).data  # bit-exact

Tile objects are placed on the :class:`ShardRing` by content digest and
written to ``replicas`` shards; manifests replicate to the owners of
``m:<name>``.  Reads fail over down the owner list, repair stale or
missing replicas as they go, and stay bit-exact with the single-store
path because ``put`` / ``read`` / ``read_slice`` are that store's own
methods.  :class:`GatewayServer` (``wavesz shard serve``) exposes a
gateway over the same wire protocol as the service, so existing clients
need no changes.
"""

from .cluster import LocalShardCluster
from .gateway import ShardGateway, manifest_key
from .ring import DEFAULT_VNODES, ShardInfo, ShardMap, ShardRing
from .server import GatewayServer, serve_gateway

__all__ = [
    "LocalShardCluster",
    "ShardRing",
    "ShardInfo",
    "ShardMap",
    "ShardGateway",
    "GatewayServer",
    "serve_gateway",
    "manifest_key",
    "DEFAULT_VNODES",
]
