"""Integration tests: the shard gateway over a real 3-shard cluster.

Everything here runs against :class:`LocalShardCluster` — three real
``CompressionServer`` instances with separate store roots on loopback
sockets — and checks the promises ``repro.shard`` makes:

* sharded reads are **bit-exact** with a single local ``ArrayStore``
  (same tile digests, same bytes);
* with ``replicas=2``, one shard down leaves **every read answerable**
  (failover), and the outage is visible in status/metrics;
* a write during an outage acks ``degraded`` and **re-converges** after
  the shard returns (read-repair + anti-entropy), verified on the
  victim's filesystem;
* with ``replicas=1`` a lost shard degrades to **salvage**: strict reads
  raise, ``strict=False`` zero-fills and reports the lost tiles exactly
  like the local damage path;
* cluster-wide **gc** removes orphans when healthy and refuses when any
  shard is unreachable;
* the :class:`GatewayServer` front speaks the service protocol, so a
  plain :class:`ServiceClient` gets the sharded store transparently.
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.data.fields import gaussian_random_field
from repro.errors import StoreError
from repro.service import ServiceClient
from repro.shard import GatewayServer, LocalShardCluster, manifest_key
from repro.store import ArrayStore


@pytest.fixture(scope="module")
def field():
    g = gaussian_random_field((40, 56), beta=3.8, seed=777)
    return (g / np.abs(g).max()).astype(np.float32)


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    roots = [tmp_path_factory.mktemp(f"shard{i}") for i in range(3)]
    with LocalShardCluster(roots, replicas=2) as c:
        yield c


@pytest.fixture(scope="module")
def local_store(tmp_path_factory, field):
    store = ArrayStore(tmp_path_factory.mktemp("local"))
    store.put("base.ts", field, "wavesz", eb=1e-3, n_tiles=4)
    return store


@pytest.fixture(scope="module")
def seeded(cluster, field):
    with cluster.gateway() as gw:
        return gw.put("base.ts", field, "wavesz", eb=1e-3, n_tiles=4)


def _shard_index(cluster, shard_id: str) -> int:
    return cluster.addresses.index(shard_id)


class TestBitExact:
    def test_same_tile_digests_as_local_store(self, seeded, local_store):
        # strongest form of "bit-exact by construction": the sharded put
        # produced byte-identical tile objects to the local one
        assert seeded.tile_digests == tuple(
            local_store.manifest("base.ts")["tiles"]
        )

    def test_full_read_matches_local(self, cluster, local_store):
        with cluster.gateway() as gw:
            result = gw.read("base.ts")
        assert result.ok
        np.testing.assert_array_equal(
            result.data, local_store.read("base.ts").data
        )

    def test_windowed_read_matches_local(self, cluster, local_store):
        window = (slice(5, 33), slice(10, 50))
        with cluster.gateway() as gw:
            result = gw.read_slice("base.ts", window)
        np.testing.assert_array_equal(
            result.data, local_store.read_slice("base.ts", window).data
        )

    def test_second_put_deduplicates_cluster_wide(self, cluster, field,
                                                  seeded):
        with cluster.gateway() as gw:
            again = gw.put("base.ts", field, "wavesz", eb=1e-3, n_tiles=4)
        assert again.new_objects == 0
        assert again.dedup_objects == len(set(seeded.tile_digests))
        assert again.stored_bytes == 0
        assert again.version == seeded.version + 1

    def test_put_spread_replicas_across_shards(self, seeded):
        # 4 tiles x 2 replicas: more objects than any one shard may hold
        assert sum(seeded.per_shard.values()) > max(seeded.per_shard.values())
        assert seeded.replicas == 2
        assert not seeded.degraded


class TestFailover:
    def test_reads_survive_primary_shard_down(self, cluster, seeded,
                                              local_store):
        expect = local_store.read("base.ts").data
        with cluster.gateway() as gw:
            victim_sid = gw.ring.owner(seeded.tile_digests[0])
        vi = _shard_index(cluster, victim_sid)
        cluster.stop_shard(vi)
        try:
            with cluster.gateway() as gw:
                result = gw.read("base.ts")
                np.testing.assert_array_equal(result.data, expect)
                assert result.ok  # replicas=2: nothing lost
                window = gw.read_slice("base.ts", (slice(3, 17), None))
                np.testing.assert_array_equal(window.data, expect[3:17])
                # the outage is visible: gauges, counters, status
                snap = gw.metrics.snapshot()
                assert snap.gauges[f"shard.{victim_sid}.up"] == 0.0
                assert snap.events.get("gateway.failovers", 0) >= 1
                status = gw.status()
                assert status["shards_up"] == 2
                assert status["shards"][victim_sid]["up"] is False
        finally:
            cluster.start_shard(vi)

    def test_status_clean_when_all_shards_back(self, cluster):
        with cluster.gateway() as gw:
            status = gw.status()
        assert status["shards_up"] == status["n_shards"] == 3
        assert status["replicas"] == 2
        for row in status["shards"].values():
            assert row["up"] and row["status"] == "ok"


class TestTypedErrors:
    def test_missing_dataset_is_store_error(self, cluster):
        with cluster.gateway() as gw, pytest.raises(
            StoreError, match="no dataset"
        ):
            gw.read("never.put")

    def test_wire_error_carries_op_and_request_id(self, cluster):
        host, port = cluster.addresses[0].rsplit(":", 1)
        with ServiceClient(host, int(port)) as c:
            with pytest.raises(StoreError, match=r"\[op store_get_manifest"):
                c.store_get_manifest("never.put")
            assert c.ping()["ok"]  # the connection survives a typed error


class TestDegradedWriteConvergence:
    def test_outage_put_acks_degraded_then_reconverges(self, cluster, field):
        data = np.roll(field, 7, axis=0) * np.float32(0.5)
        vi = 1
        victim_sid = cluster.shard_id(vi)
        cluster.stop_shard(vi)
        try:
            with cluster.gateway() as gw:
                acked = gw.put("conv.ts", data, "wavesz", eb=1e-3, n_tiles=4)
                assert acked.degraded
                assert gw.metrics.snapshot().events.get(
                    "gateway.degraded_writes", 0
                ) >= 1
                during = gw.read("conv.ts")
                assert during.ok
        finally:
            cluster.start_shard(vi)
        # one full read through a fresh gateway must heal the returned
        # shard: manifest read-repair + tile anti-entropy
        with cluster.gateway() as gw:
            healed = gw.read("conv.ts")
            ring = gw.ring
        np.testing.assert_array_equal(healed.data, during.data)
        vroot = cluster.roots[vi]
        for d in acked.tile_digests:
            if victim_sid in ring.owners(d, 2):
                assert (vroot / "objects" / d).exists(), (
                    f"tile {d[:12]}... not restored to shard {vi}"
                )
        if victim_sid in ring.owners(manifest_key("conv.ts"), 2):
            mpath = vroot / "manifests" / "conv.ts.json"
            assert mpath.exists()
            assert json.loads(mpath.read_text())["version"] == acked.version


class TestReadRepair:
    def test_rotted_primary_copy_fails_over_and_is_rewritten(
        self, cluster, seeded, local_store
    ):
        digest = seeded.tile_digests[0]
        with cluster.gateway() as gw:
            primary = gw.ring.owner(digest)
        path = cluster.roots[_shard_index(cluster, primary)] / "objects" / digest
        good = path.read_bytes()
        path.write_bytes(good[:-1] + bytes([good[-1] ^ 0xFF]))
        with cluster.gateway() as gw:
            result = gw.read("base.ts")
            events = gw.metrics.snapshot().events
        assert result.ok
        np.testing.assert_array_equal(
            result.data, local_store.read("base.ts").data
        )
        assert events.get("gateway.failovers", 0) >= 1
        assert events.get("gateway.read_repairs", 0) >= 1
        assert path.read_bytes() == good


class TestListing:
    def test_ls_reports_the_newest_manifest_not_the_first_answer(
        self, cluster, field
    ):
        # ls used to keep whichever shard answered first in shard_ids
        # order; a manifest owner that missed a re-put then showed the
        # old shape while read returned the new field
        small = field[:32, :40]
        with cluster.gateway() as gw:
            gw.put("stale.ts", small, "wavesz", eb=1e-3, n_tiles=2)
            owners = gw.ring.owners(manifest_key("stale.ts"), 2)
        vi = min(_shard_index(cluster, sid) for sid in owners)
        cluster.stop_shard(vi)
        try:
            with cluster.gateway() as gw:
                acked = gw.put("stale.ts", field, "wavesz", eb=1e-3, n_tiles=4)
                assert acked.degraded and acked.version == 2
        finally:
            cluster.start_shard(vi)
        with cluster.gateway() as gw:  # ls first: no read has repaired it
            (row,) = [r for r in gw.ls() if r["name"] == "stale.ts"]
            assert tuple(row["shape"]) == field.shape
            assert row["n_tiles"] == 4
            assert gw.read("stale.ts").data.shape == field.shape


class TestSalvageReplicasOne:
    def test_lost_shard_degrades_to_salvage(self, tmp_path, field):
        roots = [tmp_path / f"s{i}" for i in range(3)]
        with LocalShardCluster(roots, replicas=1) as cluster:
            with cluster.gateway() as gw:
                put = gw.put("solo.ts", field, "wavesz", eb=1e-3, n_tiles=4)
                ring = gw.ring
                intact = gw.read("solo.ts").data
                starts = gw.manifest("solo.ts")["band_starts"]
            bands = list(zip(starts, list(starts[1:]) + [intact.shape[0]]))
            m_owner = ring.owner(manifest_key("solo.ts"))
            victims = [
                sid for sid in cluster.addresses
                if sid != m_owner
                and any(ring.owner(d) == sid for d in put.tile_digests)
            ]
            assert victims, "placement left nothing to break"
            victim_sid = victims[0]
            lost = {
                i for i, d in enumerate(put.tile_digests)
                if ring.owner(d) == victim_sid
            }
            cluster.stop_shard(_shard_index(cluster, victim_sid))

            with cluster.gateway() as gw:
                with pytest.raises(StoreError, match="unavailable"):
                    gw.read("solo.ts")
            with cluster.gateway() as gw:
                salvaged = gw.read("solo.ts", strict=False)
            assert not salvaged.ok
            assert set(salvaged.damaged_tiles) == lost
            assert all(d.stage == "missing" for d in salvaged.damaged)
            # surviving bands are bit-exact, lost bands zero-filled —
            # exactly the local store's damage contract
            for i, (lo, hi) in enumerate(bands):
                if i in lost:
                    assert not salvaged.data[lo:hi].any()
                else:
                    np.testing.assert_array_equal(
                        salvaged.data[lo:hi], intact[lo:hi]
                    )


class TestClusterGC:
    def test_gc_refused_while_a_shard_is_down(self, cluster):
        cluster.stop_shard(2)
        try:
            with cluster.gateway() as gw, pytest.raises(
                StoreError, match="gc refused"
            ):
                gw.gc()
        finally:
            cluster.start_shard(2)

    def test_gc_sweeps_superseded_tiles_cluster_wide(self, cluster, field):
        a = field + np.float32(3.0)
        b = field - np.float32(3.0)
        with cluster.gateway() as gw:
            gw.put("gcme.ts", a, "wavesz", eb=1e-3, n_tiles=4)
            gw.put("gcme.ts", b, "wavesz", eb=1e-3, n_tiles=4)
            expect = gw.read("gcme.ts").data
            report = gw.gc()
            assert report.n_removed >= 1  # v1 replicas orphaned by v2
            assert report.reclaimed_bytes > 0
            assert set(report.per_shard) == set(cluster.addresses)
            after = gw.read("gcme.ts")
        assert after.ok
        np.testing.assert_array_equal(after.data, expect)


class TestGatewayServerWire:
    @pytest.fixture(scope="class")
    def front(self, cluster):
        loop = asyncio.new_event_loop()
        srv = GatewayServer(cluster.gateway())
        started = threading.Event()

        def runner():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(srv.start())
            started.set()
            loop.run_forever()

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        assert started.wait(10), "gateway server failed to start"
        yield srv
        asyncio.run_coroutine_threadsafe(srv.stop(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)

    def test_service_client_reads_the_sharded_store(self, front, cluster,
                                                    local_store, field):
        with ServiceClient(port=front.port) as c:
            assert c.ping()["role"] == "shard-gateway"
            report = c.store_put("wire.ts", field, "wavesz", eb=1e-3,
                                 n_tiles=4)
            assert report["replicas"] == 2 and not report["degraded"]
            out, resp = c.store_read("wire.ts")
            assert resp["damaged"] == []
            np.testing.assert_array_equal(
                out, local_store.read("base.ts").data
            )
            window, _ = c.store_slice("wire.ts", [slice(5, 9), (10, 30)])
            np.testing.assert_array_equal(window, out[5:9, 10:30])
            names = [r["name"] for r in c.store_ls()]
            assert "wire.ts" in names and "base.ts" in names

    def test_topology_and_health_over_the_wire(self, front):
        with ServiceClient(port=front.port) as c:
            topo = c.shard_map()
            assert len(topo["shards"]) == 3 and topo["replicas"] == 2
            h = c.health()
            assert h["status"] == "ok" and h["shards_up"] == 3
            assert any(k.startswith("shard.") and k.endswith(".up")
                       for k in h["gauges"])

    def test_typed_error_crosses_the_gateway_hop(self, front):
        with ServiceClient(port=front.port) as c:
            with pytest.raises(StoreError, match="no dataset"):
                c.store_read("never.put")
            assert c.ping()["ok"]
