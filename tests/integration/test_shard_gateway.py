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
  plain :class:`ServiceClient` gets the sharded store transparently;
* a **warm handle** — one gateway kept open across other writers, shard
  outages and wire faults — validates its remembered manifest against
  every owner and never serves a version an owner has moved past;
* a cold read loads its tiles in **one burst per owner rank** — the
  replica probe rides in the primaries' burst, a stopped shard costs one
  more burst whatever the tile count — and repairs what it found even
  when the read itself fails;
* a **write burst** whose reply is cut mid-frame is replayed by the
  shard, not re-run, and large pipelined bursts do not deadlock.
"""

import asyncio
import json
import os
import threading

import numpy as np
import pytest

from repro.data.fields import gaussian_random_field
from repro.errors import StoreError
from repro.faults.netsim import FlakySocketFactory, NetFault, NetFaultKind
from repro.service import ServiceClient
from repro.service.ops import OPS, Op, _object_store
from repro.service.wire import pack
from repro.shard import GatewayServer, LocalShardCluster, manifest_key
from repro.store import ArrayStore, manifest_digest
from repro.store import store as store_module


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


class TestTileCacheCounts:
    def test_gateway_counts_each_lookup_once_like_the_local_store(
        self, cluster, seeded, local_store
    ):
        local = ArrayStore(local_store.root)  # fresh handle, cold cache
        with cluster.gateway() as gw:
            for store in (local, gw):
                store.read("base.ts")  # cold
                store.read("base.ts")  # warm
                store.read_slice("base.ts", (slice(5, 33), slice(10, 50)))
            ours, theirs = local.cache.stats(), gw.cache.stats()
            assert gw.decode_calls == local.decode_calls == 4
        for key in ("hits", "misses", "entries"):
            assert ours[key] == theirs[key], key
        assert ours["misses"] == 4 and ours["hits"] == 4 + 4


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
                c._call("store_get_manifest", name="never.put")
            assert c.ping()["ok"]  # the connection survives a typed error


class TestDegradedWriteConvergence:
    def test_outage_put_acks_degraded_then_reconverges(self, cluster, field):
        data = np.roll(field, 7, axis=0) * np.float32(0.5)
        # The outage must hit an owner of what the put writes: the ring
        # places names by the shards' (ephemeral) ports, and a shard that
        # owns none of the four tiles and not the manifest leaves the put
        # fully replicated.  The manifest's primary owner always qualifies.
        with cluster.gateway() as gw:
            victim_sid = gw.ring.owners(manifest_key("conv.ts"), 2)[0]
        vi = _shard_index(cluster, victim_sid)
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


def _count_bursts(H):
    """Wrap ``H._burst``; returns the list each burst's ops land in."""
    burst, seen = H._burst, []

    def counting(requests):
        seen.append({op for batch in requests.values() for op, _, _ in batch})
        return burst(requests)

    H._burst = counting
    return seen


class TestReadBursts:
    def test_healthy_cold_read_is_two_bursts(self, cluster, seeded,
                                             local_store):
        with cluster.gateway() as gw:
            gw.read("base.ts")  # converge whatever earlier tests left
        with cluster.gateway() as H:
            bursts = _count_bursts(H)
            got = H.read("base.ts")
        np.testing.assert_array_equal(
            got.data, local_store.read("base.ts").data)
        # the manifest, then every object with the replica probe alongside
        assert bursts == [
            {"store_get_manifest"}, {"store_get_object", "store_has_objects"},
        ]

    def test_one_shard_down_costs_one_burst_per_rank(self, cluster, field):
        name = "bursts-8.ts"
        data = np.roll(field, 5, axis=1) + np.float32(2.0)
        with cluster.gateway() as gw:
            put = gw.put(name, data, "wavesz", eb=1e-3, n_tiles=8)
            expect = gw.read(name).data
            ring = gw.ring
        assert put.n_tiles == 8
        digests = set(put.tile_digests)
        primaries = [ring.owner(d) for d in digests]
        victim = max(set(primaries), key=primaries.count)
        vi = _shard_index(cluster, victim)
        cluster.stop_shard(vi)
        try:
            with cluster.gateway() as H:
                bursts = _count_bursts(H)
                got = H.read(name)
                events = H.metrics.snapshot().events
                R = H.map.replicas
        finally:
            cluster.start_shard(vi)
        assert got.ok
        np.testing.assert_array_equal(got.data, expect)
        assert len(bursts) <= 1 + R + 1
        # one failover per digest the stopped shard is primary for
        assert events.get("gateway.failovers", 0) == primaries.count(victim)

    def test_a_failed_strict_read_still_repairs(self, cluster, field):
        name = "lost-one.ts"
        data = np.roll(field, 13, axis=0) - np.float32(4.0)
        with cluster.gateway() as gw:
            put = gw.put(name, data, "wavesz", eb=1e-3, n_tiles=4)
            ring = gw.ring

        def path(sid, digest):
            return cluster.roots[_shard_index(cluster, sid)] / "objects" / digest

        gone, thin = list(dict.fromkeys(put.tile_digests))[:2]
        for sid in ring.owners(gone, 2):
            path(sid, gone).unlink()
        secondary = ring.owners(thin, 2)[1]
        path(secondary, thin).unlink()
        with cluster.gateway() as gw:
            with pytest.raises(StoreError, match="unavailable"):
                gw.read(name)
            repairs = gw.metrics.snapshot().events.get("gateway.read_repairs")
        assert path(secondary, thin).exists()
        assert repairs == 1


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
                ring = gw.ring
                # the victim must own a tile but not the manifest, and
                # placement follows the ephemeral ports: about one run in
                # eighty puts all four tiles on the manifest's owner, so
                # the name (which places the manifest) is tried, not fixed
                for name in (f"solo-{i}.ts" for i in range(8)):
                    put = gw.put(name, field, "wavesz", eb=1e-3, n_tiles=4)
                    m_owner = ring.owner(manifest_key(name))
                    victims = [
                        sid for sid in cluster.addresses
                        if sid != m_owner
                        and any(ring.owner(d) == sid for d in put.tile_digests)
                    ]
                    if victims:
                        break
                assert victims, "placement left nothing to break"
                intact = gw.read(name).data
                starts = gw.manifest(name)["band_starts"]
            bands = list(zip(starts, list(starts[1:]) + [intact.shape[0]]))
            victim_sid = victims[0]
            lost = {
                i for i, d in enumerate(put.tile_digests)
                if ring.owner(d) == victim_sid
            }
            cluster.stop_shard(_shard_index(cluster, victim_sid))

            with cluster.gateway() as gw:
                with pytest.raises(StoreError, match="unavailable"):
                    gw.read(name)
            with cluster.gateway() as gw:
                salvaged = gw.read(name, strict=False)
                assert gw.metrics.snapshot().events.get(
                    "gateway.degraded_reads") == 1
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


def _legacy_get_manifest():
    """The handler of a shard that predates ``if_digest``: the field is
    not in its row, so it is ignored and the manifest always sent."""
    async def handler(srv, body, *, name: str):
        m = await srv.blocking(_object_store(srv).manifest, name)
        return pack({"ok": True, "manifest": m})
    return Op(handler, "store")


class TestWarmHandle:
    """One gateway handle, opened and read twice, then kept while the
    cluster changes under it.  Every other read in this file opens a
    fresh gateway, which never exercises the manifest memo."""

    @pytest.fixture()
    def other(self, field):
        return (np.roll(field, 11, axis=1) * np.float32(0.25)).astype(np.float32)

    def _warm(self, cluster, name, data, **kwargs):
        with cluster.gateway() as writer:
            writer.put(name, data, "wavesz", eb=1e-3, n_tiles=4)
        H = cluster.gateway(**kwargs)
        first, second = H.read(name), H.read(name)
        np.testing.assert_array_equal(first.data, second.data)
        return H, first.data

    @staticmethod
    def _owners(cluster, H, name):
        return [_shard_index(cluster, sid)
                for sid in H.ring.owners(manifest_key(name), 2)]

    @staticmethod
    def _manifest_file(cluster, i, name):
        return cluster.roots[i] / "manifests" / f"{name}.json"

    def test_another_gateways_put_is_seen(self, cluster, field, other):
        H, v1 = self._warm(cluster, "warm-a.ts", field)
        with H, cluster.gateway() as writer:
            acked = writer.put("warm-a.ts", other, "wavesz", eb=1e-3, n_tiles=4)
            v2 = writer.read("warm-a.ts").data
            assert not np.array_equal(v1, v2)
            np.testing.assert_array_equal(H.read("warm-a.ts").data, v2)
            assert H.manifest("warm-a.ts")["version"] == acked.version

    def test_owner_that_missed_a_put_cannot_vouch_for_the_old_version(
        self, cluster, field, other
    ):
        # the test a single-owner revalidation fails: whichever owner it
        # asks, one turn of this loop makes that owner the stale one
        H, served = self._warm(cluster, "warm-b.ts", field)
        versions = (other, field + np.float32(1.0))
        with H:
            for vi, data in zip(self._owners(cluster, H, "warm-b.ts"), versions):
                cluster.stop_shard(vi)
                try:
                    with cluster.gateway() as writer:
                        acked = writer.put("warm-b.ts", data, "wavesz",
                                           eb=1e-3, n_tiles=4)
                        assert acked.degraded
                        expect = writer.read("warm-b.ts").data
                finally:
                    cluster.start_shard(vi)
                assert not np.array_equal(expect, served)
                served = H.read("warm-b.ts").data
                np.testing.assert_array_equal(served, expect)
                # ... and the read repaired the owner that was away
                on_disk = json.loads(
                    self._manifest_file(cluster, vi, "warm-b.ts").read_text())
                assert on_disk["version"] == acked.version

    def test_slice_answers_with_one_owner_down(self, cluster, field):
        H, v1 = self._warm(cluster, "warm-c.ts", field)
        vi = self._owners(cluster, H, "warm-c.ts")[0]
        with H:
            cluster.stop_shard(vi)
            try:
                for _ in range(2):
                    got = H.read_slice("warm-c.ts", (slice(3, 17), None))
                    assert got.ok
                    np.testing.assert_array_equal(got.data, v1[3:17])
            finally:
                cluster.start_shard(vi)
            np.testing.assert_array_equal(H.read("warm-c.ts").data, v1)

    def test_manifest_file_replaced_behind_a_running_shard(
        self, cluster, field, other
    ):
        small = field[:32, :40]
        with cluster.gateway() as writer:
            writer.put("warm-d.ts", small, "wavesz", eb=1e-3, n_tiles=2)
            vi = self._owners(cluster, writer, "warm-d.ts")[0]
            path = self._manifest_file(cluster, vi, "warm-d.ts")
            v1_bytes = path.read_bytes()
        H, v2 = self._warm(cluster, "warm-d.ts", other)  # puts version 2
        shard_store = cluster.servers[vi].store
        with H:
            assert shard_store.manifest("warm-d.ts")["version"] == 2
            # a writer outside the one-process contract: no handle is told
            tmp = path.with_name("outside-writer.tmp")
            tmp.write_bytes(v1_bytes)
            os.replace(tmp, path)
            # the shard's own memo notices (stat identity) ...
            (row,) = [r for r in shard_store.ls() if r["name"] == "warm-d.ts"]
            assert row["shape"] == small.shape and row["n_tiles"] == 2
            assert shard_store.manifest("warm-d.ts") == json.loads(v1_bytes)
            report = shard_store.fsck()
            assert not [f for f in report.findings if f.kind == "bad-manifest"]
            # fsck audits the file as it is: what it says of this dataset
            # it says of version 1's tiles (some live on other shards)
            v1_tiles = set(json.loads(v1_bytes)["tiles"])
            assert {f.subject for f in report.findings
                    if "'warm-d.ts'" in f.detail} <= v1_tiles
            # ... so it cannot confirm version 2, and the walk repairs it
            before = H.metrics.snapshot().events.get("gateway.read_repairs", 0)
            np.testing.assert_array_equal(H.read("warm-d.ts").data, v2)
            after = H.metrics.snapshot().events.get("gateway.read_repairs", 0)
            assert after == before + 1
            assert json.loads(path.read_text())["version"] == 2
            assert shard_store.manifest("warm-d.ts")["version"] == 2

    def test_restarted_shard_confirms_an_unchanged_manifest(self, cluster, field):
        H, v1 = self._warm(cluster, "warm-e.ts", field)
        vi = self._owners(cluster, H, "warm-e.ts")[0]
        with H:
            digest = manifest_digest(H.manifest("warm-e.ts"))
            cluster.stop_shard(vi)
            cluster.start_shard(vi)  # a new server: nothing remembered
            host, port = cluster.addresses[vi].rsplit(":", 1)
            with ServiceClient(host, int(port)) as c:
                assert c._call(
                    "store_get_manifest", name="warm-e.ts", if_digest=digest
                )[0] == {"ok": True, "unchanged": True}
            before = H.metrics.snapshot().events.get("gateway.read_repairs", 0)
            np.testing.assert_array_equal(H.read("warm-e.ts").data, v1)
            assert H.metrics.snapshot().events.get(
                "gateway.read_repairs", 0) == before

    @pytest.mark.parametrize("kind", [NetFaultKind.RESET, NetFaultKind.STALL])
    @pytest.mark.parametrize("which", [0, 1])
    def test_wire_fault_inside_a_validation_burst(
        self, cluster, field, kind, which
    ):
        # clean FlakyConnections, armed by hand once the handle is warm
        H, v1 = self._warm(
            cluster, "warm-f.ts", field, timeout=2.0,
            socket_factory=FlakySocketFactory(faulty_connections=0),
        )
        with H:
            owners = H.ring.owners(manifest_key("warm-f.ts"), 2)
            conn = H._clients[owners[which]]._sock
            # two bytes into the reply's length prefix: mid-frame
            conn.fault = NetFault(kind, after_bytes=conn.rx_bytes + 2)
            np.testing.assert_array_equal(H.read("warm-f.ts").data, v1)
            assert conn.fault is None, "the fault did not fire"
            # a reply left unread on a kept connection would answer the
            # *next* request: a health probe would get a manifest reply
            status = H.status()
            assert status["shards_up"] == 3
            assert {row["status"] for row in status["shards"].values()} == {"ok"}
            np.testing.assert_array_equal(
                H.read_slice("warm-f.ts", (slice(3, 17), None)).data, v1[3:17])
            assert "warm-f.ts" in H.names()

    def test_full_manifest_reply_to_a_conditional_request(
        self, cluster, field, monkeypatch
    ):
        H, v1 = self._warm(cluster, "warm-g.ts", field)
        bursts = []
        ask = H._ask
        monkeypatch.setattr(
            H, "_ask", lambda op, requests: bursts.append(op) or ask(op, requests))
        with H:
            monkeypatch.setitem(OPS, "store_get_manifest", _legacy_get_manifest())
            np.testing.assert_array_equal(H.read("warm-g.ts").data, v1)
            # digests matched: served from the memo, no walk, no repair
            assert bursts == ["store_get_manifest"]
            monkeypatch.undo()
            np.testing.assert_array_equal(H.read("warm-g.ts").data, v1)


class TestWriteBurstFaults:
    """A wire fault inside a *write* burst.  The request reached the shard
    and ran; its reply is cut two bytes in.  The second try carries the
    request id the request was built with, so the shard replays its
    answer instead of running the write again."""

    @staticmethod
    def _arm(H, op, kind):
        """Cut the first reply of the next ``op`` burst; returns the
        ``[(shard id, connection)]`` it armed (filled in when it does)."""
        burst, armed = H._burst, []

        def arming(requests):
            for sid, batch in requests.items():
                if not armed and batch and batch[0][0] == op:
                    conn = H._clients[sid]._sock
                    conn.fault = NetFault(kind, after_bytes=conn.rx_bytes + 2)
                    armed.append((sid, conn))
            return burst(requests)

        H._burst = arming
        return armed

    @pytest.mark.parametrize("kind", [NetFaultKind.RESET, NetFaultKind.STALL])
    @pytest.mark.parametrize("op", ["store_put_object", "store_put_manifest"])
    def test_cut_reply_is_replayed_not_rerun(
        self, cluster, field, tmp_path, op, kind
    ):
        name = f"wfault-{op[10:]}-{kind.name.lower()}.ts"
        # four fields whose tiles are new to the cluster
        data = np.roll(field, 3, axis=1) + np.float32(
            10 + 2 * (op == "store_put_object") + (kind is NetFaultKind.RESET))
        local = ArrayStore(tmp_path / "local")
        local.put(name, data, "wavesz", eb=1e-3, n_tiles=4)

        def idem_hits():
            return {
                sid: srv.metrics.snapshot().events.get("server.idem_hits", 0)
                for sid, srv in zip(cluster.addresses, cluster.servers)
            }

        with cluster.gateway(
            timeout=2.0, socket_factory=FlakySocketFactory(faulty_connections=0),
        ) as H:
            assert H.status()["shards_up"] == 3  # every connection is open
            armed = self._arm(H, op, kind)
            before = idem_hits()
            acked = H.put(name, data, "wavesz", eb=1e-3, n_tiles=4)
            (victim, conn), = armed
            assert conn.fault is None, "the fault did not fire"
            assert not acked.degraded
            assert idem_hits()[victim] >= before[victim] + 1
            # run once: the replayed answers still say "stored", a second
            # execution would have found the objects there and said "dedup"
            owned = [d for d in set(acked.tile_digests)
                     if victim in H.ring.owners(d, 2)]
            assert acked.per_shard.get(victim, 0) == len(owned)
            assert acked.new_objects == len(set(acked.tile_digests))
            # no reply left unread on a kept connection
            status = H.status()
            assert status["shards_up"] == 3
            assert {row["status"] for row in status["shards"].values()} == {"ok"}
        with cluster.gateway() as fresh:
            got = fresh.read(name)
            assert got.ok and fresh.manifest(name)["version"] == acked.version
        np.testing.assert_array_equal(got.data, local.read(name).data)


class TestPipelining:
    def test_large_bursts_do_not_deadlock(self, cluster, monkeypatch):
        """k large requests, then k large replies, pipelined on one
        connection per shard: more than a socket buffer is in flight
        before the first reply is read.  ``store_put_object`` is large in
        and ~80 B out, ``store_get_object`` ~120 B in and large out — no
        op has both, so neither side ever blocks the other."""
        rng = np.random.default_rng(23)
        data = rng.standard_normal((1024, 1024)).astype(np.float32)  # 4 MB
        bound = 1e-6 * float(data.max() - data.min())

        def no_second_try(*args, **kwargs):
            raise AssertionError("a burst stalled into its serial second try")

        with cluster.gateway(timeout=5) as H:
            monkeypatch.setattr(H, "_second_try", no_second_try)
            acked = H.put("pipeline.ts", data, "wavesz", eb=1e-6, n_tiles=16)
            assert not acked.degraded and acked.new_objects == 16
            per_request = acked.stored_bytes / (2 * 16)
            assert per_request > 150_000, "the field compressed too well"
            # 32 copies over 3 shards: the fullest got >= 11 in one burst
            assert 11 * per_request > 1 << 20
        with cluster.gateway(timeout=5) as H:  # cold: every tile crosses
            monkeypatch.setattr(H, "_second_try", no_second_try)
            got = H.read("pipeline.ts")
            assert got.ok and H.decode_calls == 16
            events = H.metrics.snapshot().events
            assert events.get("gateway.failovers", 0) == 0
        assert np.abs(got.data - data).max() <= bound


class TestManifestMemoBound:
    def test_evicted_names_read_through_the_walk(
        self, tmp_path, field, monkeypatch
    ):
        monkeypatch.setattr(store_module, "MANIFEST_MEMO_ENTRIES", 2)
        names = [f"bound-{i}.ts" for i in range(3)]
        # its own cluster: a manifest memo trims only inside put, so a shard
        # of the shared one that owns none of these names (placement
        # follows the ephemeral ports) would still hold the earlier tests'
        # entries from under the default bound
        roots = [tmp_path / f"s{i}" for i in range(3)]
        with LocalShardCluster(roots, replicas=2) as cluster, \
                cluster.gateway() as H:
            for i, name in enumerate(names):
                H.put(name, field + np.float32(i), "wavesz", eb=1e-3, n_tiles=2)
            expect = {name: H.read(name).data for name in names}
            assert len(H._manifests) == 2
            assert H._manifests.get(names[0]) is None  # oldest went first
            shard_memos = [srv.store._manifests for srv in cluster.servers]
            assert all(len(memo) <= 2 for memo in shard_memos)
            for name in names:  # evicted or held, every name still reads
                np.testing.assert_array_equal(H.read(name).data, expect[name])
                np.testing.assert_array_equal(
                    H.read_slice(name, (slice(2, 9), None)).data,
                    expect[name][2:9])
            assert len(H._manifests) == 2
            assert all(len(memo) <= 2 for memo in shard_memos)
