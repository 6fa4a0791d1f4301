"""Unit tests for gateway pieces that need no running shards.

Constructing a :class:`ShardGateway` is lazy — no sockets are opened
until a call goes out — so winner selection, result accounting, and the
construction-time error taxonomy are all testable offline.  The wire
behaviour (failover, read-repair, salvage) lives in
``tests/integration/test_shard_gateway.py``.
"""

import socket

import pytest

from repro.errors import ConfigError, TransportError
from repro.shard import ShardGateway, ShardMap
from repro.shard.gateway import manifest_key
from repro.store import GCResult, PutResult, manifest_digest


@pytest.fixture()
def offline_gateway():
    gw = ShardGateway(
        ShardMap.from_addresses("127.0.0.1:1,127.0.0.1:2,127.0.0.1:3",
                                replicas=2)
    )
    yield gw
    gw.close()


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestManifestWinner:
    def test_higher_version_wins(self, offline_gateway):
        old = {"name": "d", "version": 1, "tiles": ["a"]}
        new = {"name": "d", "version": 2, "tiles": ["b"]}
        assert offline_gateway._newer(new, old)
        assert not offline_gateway._newer(old, new)

    def test_version_tie_breaks_deterministically(self, offline_gateway):
        a = {"name": "d", "version": 3, "tiles": ["a"]}
        b = {"name": "d", "version": 3, "tiles": ["b"]}
        # exactly one direction is "newer": every client converges on
        # the same replica no matter the order replies arrive in
        assert offline_gateway._newer(a, b) != offline_gateway._newer(b, a)

    def test_missing_version_defaults_to_one(self, offline_gateway):
        assert offline_gateway._newer(
            {"version": 2, "tiles": []}, {"tiles": []}
        )

    def test_key_order_does_not_change_the_digest(self):
        a = {"version": 1, "tiles": ["x"], "name": "d"}
        b = {"name": "d", "tiles": ["x"], "version": 1}
        assert manifest_digest(a) == manifest_digest(b)


class TestResultShapes:
    def _result(self, **over):
        base = dict(
            name="d.ts", shape=(8, 8), dtype="float32", codec="wavesz",
            eb_abs=1e-3, tile_digests=("a", "b"), version=1, replicas=2,
            new_objects=2, dedup_objects=0, stored_bytes=400,
            dedup_bytes=0, compressed_bytes=200, original_bytes=1024,
            degraded=False,
        )
        base.update(over)
        return PutResult(**base)

    def test_ratio_counts_one_logical_copy(self):
        r = self._result()
        # replication doubles stored_bytes but must not halve the ratio
        assert r.ratio == 1024 / 200
        assert r.n_tiles == 2

    def test_gc_result_is_cli_shape_compatible(self):
        # one GCResult: a cluster-wide pass names no digests itself, its
        # per-shard counts are what `wavesz store gc` prints as removed
        per_shard = {
            "a": {"removed": 1, "reclaimed_bytes": 10, "kept": 2},
            "b": {"removed": 2, "reclaimed_bytes": 0, "kept": 1},
        }
        r = GCResult(removed=(), reclaimed_bytes=10, kept=3,
                     per_shard=per_shard)
        assert r.n_removed == 3 and r.tmp_removed == ()
        local = GCResult(removed=("d1", "d2"), reclaimed_bytes=5, kept=0)
        assert local.n_removed == 2 and local.per_shard == {}


class TestFromAny:
    def test_no_addresses_rejected(self):
        with pytest.raises(ConfigError, match="no shard addresses"):
            ShardGateway.from_any("")

    def test_multi_address_skips_probe(self):
        gw = ShardGateway.from_any(
            "127.0.0.1:8301,127.0.0.1:8302", replicas=2
        )
        try:
            assert gw.map.shard_ids == ("127.0.0.1:8301", "127.0.0.1:8302")
            assert gw.map.replicas == 2
        finally:
            gw.close()

    def test_unreachable_single_address_is_transport_error(self):
        port = _free_port()
        with pytest.raises(TransportError, match="shard map"):
            ShardGateway.from_any(f"127.0.0.1:{port}")


class TestPlacementKeys:
    def test_manifest_keys_never_collide_with_digests(self):
        # tile keys are hex digests; the "m:" prefix keeps the two key
        # families disjoint on the ring
        assert manifest_key("abc.ts").startswith("m:")
        assert ":" not in "0123456789abcdef"
