"""Multi-process shard smoke: real ``wavesz serve`` subprocesses.

The in-process cluster tests elide the process boundary; this one does
not.  Three ``python -m repro.cli serve --store ...`` children on
loopback form a 3-shard / replicas=2 cluster behind a
:class:`ShardGateway`.  We check:

* replicated puts spread objects across the children's store roots;
* full and windowed reads are bit-exact with a local ArrayStore;
* SIGKILLing one child (a real process death, not a polite close)
  leaves every read answerable and visible in ``status()``;
* aggregate cold-slice latency through the sharded gateway stays within
  a generous factor of a single-server baseline — a structural "the
  fan-out isn't pathological" floor, not a benchmark (CI boxes jitter;
  the ``store_sharded`` workload of ``benchmarks/e2e`` measures properly).
"""

import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.data.fields import gaussian_random_field
from repro.shard import ShardGateway, ShardMap
from repro.store import ArrayStore

REPO = Path(__file__).resolve().parents[2]
_LISTEN = re.compile(r"listening on (\d+\.\d+\.\d+\.\d+:\d+)")


def _spawn_server(root: Path) -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--store", str(root), "--port", "0",
         "--workers", "1", "--pool", "thread"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=str(REPO),
    )
    box: list[str] = []

    def read_banner() -> None:
        box.append(proc.stdout.readline())

    t = threading.Thread(target=read_banner, daemon=True)
    t.start()
    t.join(20)
    if not box or not box[0]:
        proc.kill()
        raise RuntimeError("shard server produced no banner")
    m = _LISTEN.search(box[0])
    if m is None:
        proc.kill()
        raise RuntimeError(f"unparseable banner: {box[0]!r}")
    return proc, m.group(1)


@pytest.fixture(scope="module")
def field():
    g = gaussian_random_field((96, 128), beta=3.8, seed=4242)
    return (g / np.abs(g).max()).astype(np.float32)


@pytest.fixture(scope="module")
def procs(tmp_path_factory):
    spawned = []
    try:
        for i in range(3):
            spawned.append(
                _spawn_server(tmp_path_factory.mktemp(f"proc-shard{i}"))
            )
        yield spawned
    finally:
        for proc, _ in spawned:
            if proc.poll() is None:
                proc.kill()
        for proc, _ in spawned:
            proc.wait(10)


@pytest.fixture(scope="module")
def addresses(procs):
    return [addr for _, addr in procs]


@pytest.fixture(scope="module")
def reference(tmp_path_factory, field):
    store = ArrayStore(tmp_path_factory.mktemp("proc-local"))
    store.put("mp.ts", field, "wavesz", eb=1e-3, n_tiles=8)
    return store


def _gateway(addresses, **kwargs) -> ShardGateway:
    return ShardGateway(
        ShardMap.from_addresses(addresses, replicas=2), **kwargs
    )


class TestMultiProcessCluster:
    def test_put_spreads_objects_across_processes(
        self, addresses, procs, field, tmp_path_factory
    ):
        with _gateway(addresses) as gw:
            put = gw.put("mp.ts", field, "wavesz", eb=1e-3, n_tiles=8)
        assert not put.degraded
        assert len(put.per_shard) >= 2, "all replicas landed on one process"
        # the objects really are in different OS processes' directories:
        # no single root holds every digest, every digest is somewhere
        roots = [Path(p.args[p.args.index("--store") + 1])
                 for p, _ in procs]
        holders = {
            d: sum((r / "objects" / d).exists() for r in roots)
            for d in put.tile_digests
        }
        assert all(n >= 1 for n in holders.values())
        per_root = [sum((r / "objects" / d).exists()
                        for d in put.tile_digests) for r in roots]
        assert max(per_root) < len(set(put.tile_digests)) * 2

    def test_reads_bit_exact_with_local_store(self, addresses, reference):
        expect = reference.read("mp.ts").data
        with _gateway(addresses) as gw:
            np.testing.assert_array_equal(gw.read("mp.ts").data, expect)
            window = gw.read_slice("mp.ts", (slice(10, 50), slice(3, 97)))
        np.testing.assert_array_equal(window.data, expect[10:50, 3:97])

    def test_aggregate_cold_slices_not_pathological(
        self, addresses, tmp_path_factory, field, reference
    ):
        single_root = tmp_path_factory.mktemp("proc-single")
        sproc, saddr = _spawn_server(single_root)
        try:
            with _gateway([saddr]) as gw:
                gw.put("mp.ts", field, "wavesz", eb=1e-3, n_tiles=8)

            def cold_runs(addrs, n=3) -> float:
                best = float("inf")
                for _ in range(n):
                    with _gateway(addrs) as gw:  # fresh gateway: cold cache
                        t0 = time.perf_counter()
                        r = gw.read_slice("mp.ts", (None, slice(0, 128)))
                        best = min(best, time.perf_counter() - t0)
                    assert r.ok
                return best

            sharded = cold_runs(addresses)
            single = cold_runs([saddr])
        finally:
            sproc.kill()
            sproc.wait(10)
        # generous floor: shard-parallel prefetch must not cost more
        # than 4x a single server end-to-end (it is usually faster)
        assert sharded < max(single * 4.0, 0.5), (
            f"sharded cold slice {sharded:.3f}s vs single {single:.3f}s"
        )

    def test_sigkill_one_process_reads_survive(
        self, addresses, procs, reference
    ):
        expect = reference.read("mp.ts").data
        with _gateway(addresses) as gw:
            victim_sid = gw.ring.owner(
                reference.manifest("mp.ts")["tiles"][0]
            )
        vi = addresses.index(victim_sid)
        proc = procs[vi][0]
        proc.kill()
        proc.wait(10)
        with _gateway(addresses) as gw:
            result = gw.read("mp.ts")
            assert result.ok
            np.testing.assert_array_equal(result.data, expect)
            window = gw.read_slice("mp.ts", (slice(5, 60), None))
            np.testing.assert_array_equal(window.data, expect[5:60])
            status = gw.status()
        assert status["shards_up"] == 2
        assert status["shards"][victim_sid]["up"] is False
