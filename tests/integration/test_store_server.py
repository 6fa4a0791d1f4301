"""Integration smoke test: the array store exposed over the TCP service.

Starts a real server with a store root, puts fields through the wire,
and checks that full reads, windowed reads, dedup accounting, and the
store-less error answer all behave — including that a windowed read
really does decode fewer tiles than a full one (via the store's decode
counter, which the server process shares with the test).
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.data.fields import gaussian_random_field
from repro.errors import ReproError, ServiceError, ShapeError, StoreError
from repro.service import CompressionServer, ServiceClient


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = tmp_path_factory.mktemp("store")
    loop = asyncio.new_event_loop()
    srv = CompressionServer(
        port=0, workers=2, pool_kind="thread", queue_size=64,
        store_root=str(root),
    )
    started = threading.Event()

    def runner():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(srv.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(10), "server failed to start"
    yield srv
    asyncio.run_coroutine_threadsafe(srv.stop(), loop).result(10)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(10)


@pytest.fixture(scope="module")
def field():
    g = gaussian_random_field((40, 56), beta=3.8, seed=777)
    return (g / np.abs(g).max()).astype(np.float32)


class TestStoreOverTcp:
    def test_put_then_read_bit_exact(self, server, field):
        with ServiceClient(port=server.port) as c:
            report = c.store_put("wire.ts", field, "sz14", eb=1e-3,
                                 n_tiles=4)
            assert report["n_tiles"] == 4
            assert report["new_objects"] == 4
            out, resp = c.store_read("wire.ts")
        np.testing.assert_array_equal(
            out, server.store.read("wire.ts").data
        )
        assert resp["damaged"] == []
        vr = float(field.max() - field.min())
        assert np.abs(out.astype(np.float64) - field).max() <= 1e-3 * vr

    def test_second_put_deduplicates(self, server, field):
        with ServiceClient(port=server.port) as c:
            report = c.store_put("wire.copy", field, "sz14", eb=1e-3,
                                 n_tiles=4)
        assert report["new_objects"] == 0
        assert report["dedup_objects"] == 4

    def test_slice_matches_and_touches_fewer_tiles(self, server, field):
        with ServiceClient(port=server.port) as c:
            full, _ = c.store_read("wire.ts")
            server.store.cache.clear()
            before = server.store.decode_calls
            window, resp = c.store_slice(
                "wire.ts", [slice(5, 9), (10, 30)]
            )
        np.testing.assert_array_equal(window, full[5:9, 10:30])
        assert resp["tiles"] == [0]
        assert server.store.decode_calls - before == 1

    def test_strided_slice_refused_like_a_local_read(self, server, field):
        """A step does not cross the wire, so the client refuses it with
        the ``ShapeError`` a local ``read_slice`` raises."""
        window = [slice(0, 10, 2)]
        with ServiceClient(port=server.port) as c:
            c.store_put("wire.strided", field, "sz14", n_tiles=4)
            with pytest.raises(ShapeError) as remote:
                c.store_slice("wire.strided", window)
            assert c.ping()["ok"]
        with pytest.raises(ShapeError) as local:
            server.store.read_slice("wire.strided", window)
        assert str(remote.value) == str(local.value)

    def test_unknown_dataset_is_an_answered_error(self, server):
        with ServiceClient(port=server.port) as c:
            with pytest.raises(StoreError, match="no dataset"):
                c.store_read("never.put")
            assert c.ping()["ok"]  # connection survives

    def test_bad_slice_payload_rejected(self, server):
        with ServiceClient(port=server.port) as c:
            resp, _ = c._roundtrip({
                "op": "store_slice", "name": "wire.ts", "slices": "0:4",
            })
            assert not resp["ok"]
            assert "list" in resp["error"] or "list" in resp.get("detail", "")


class TestConcurrentClients:
    def test_two_clients_putting_fields_that_share_a_band(self, server):
        """Store ops run in worker threads, so two connections drive one
        ``ArrayStore`` at once.  The tile both fields share is new to the
        store in every round: it must be written once, and neither ack
        may be lost to the other put's rollback."""
        rounds = 12
        rng = np.random.default_rng(5)
        fields = {}
        for r in range(rounds):
            for k in range(2):
                f = rng.standard_normal((64, 48)).astype(np.float32)
                f[:16] = float(r + 1)  # band 0 of 4: same bytes for both
                fields[f"cc.r{r}.c{k}"] = f
        barrier = threading.Barrier(2)
        failed: list[tuple[str, Exception]] = []

        def client(k):
            with ServiceClient(port=server.port) as c:
                for r in range(rounds):
                    name = f"cc.r{r}.c{k}"
                    barrier.wait(30)
                    try:
                        # an absolute bound, so the constant band
                        # compresses to the same bytes in both fields
                        report = c.store_put(name, fields[name], "sz14",
                                             eb=1e-3, mode="abs", n_tiles=4)
                        assert report["n_tiles"] == 4
                    except (ReproError, AssertionError) as exc:
                        failed.append((name, exc))

        threads = [threading.Thread(target=client, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
            assert not t.is_alive()
        assert failed == []

        server.store.cache.clear()
        with ServiceClient(port=server.port) as c:
            for name, f in fields.items():
                out, resp = c.store_read(name)
                assert resp["damaged"] == []
                assert np.abs(out.astype(np.float64) - f).max() <= 1e-3
        shared = {
            server.store.manifest(f"cc.r0.c{k}")["tiles"][0] for k in (0, 1)
        }
        assert len(shared) == 1  # the schedule did collide on one digest
        server.store.fsck().assert_clean()


class TestHealthProbe:
    def test_health_survives_a_corrupt_manifest(self, server, field):
        """A liveness probe counts manifests, it does not parse them:
        one rotten manifest must not make a live shard look DOWN."""
        bad = server.store.root / "manifests" / "rotten.json"
        with ServiceClient(port=server.port) as c:
            c.store_put("health.ts", field, "sz14", eb=1e-3, n_tiles=2)
            before = c.health()
            bad.write_text("{not json")
            try:
                after = c.health()
                with pytest.raises(StoreError, match="unreadable"):
                    c.store_ls()
            finally:
                bad.unlink()
        assert after["status"] == "ok"
        n = int(before["store"].split()[0])
        assert before["store"] == f"{n} dataset(s)"
        assert after["store"] == f"{n + 1} dataset(s)"


class TestStoreNotConfigured:
    def test_storeless_server_answers_cleanly(self):
        loop = asyncio.new_event_loop()
        srv = CompressionServer(port=0, workers=1, pool_kind="thread")
        started = threading.Event()

        def runner():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(srv.start())
            started.set()
            loop.run_forever()

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        assert started.wait(10)
        try:
            with ServiceClient(port=srv.port) as c:
                with pytest.raises(ServiceError,
                                   match="store-not-configured"):
                    c.store_read("anything")
        finally:
            asyncio.run_coroutine_threadsafe(srv.stop(), loop).result(10)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10)
