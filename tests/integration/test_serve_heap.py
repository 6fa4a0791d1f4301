"""What heap ``wavesz serve`` keeps, and that only the serve entry points
set it.

``serve`` and ``serve_gateway`` have glibc keep up to
``_HEAP_KEEP_BYTES`` of freed heap (``_keep_freed_heap``), so a served
field's temporaries are faulted in once, not on every request.  Pinned
here: steady-state requests add almost no minor faults to the server and
its workers; the heap a process keeps stays under the bound; a server
embedded in a program never touches the allocator; and the replay
cache's memory is visible in ``stats``.
"""

import asyncio
import ctypes
import json
import os
import platform
import re
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.service import CompressionServer, ServiceClient
from repro.service import server as server_module
from repro.service.server import _IDEM_CACHE_BYTES
from tests.dispatch import serving

SRC = Path(__file__).resolve().parents[2] / "src"
GLIBC_LINUX = (
    sys.platform.startswith("linux")
    and platform.libc_ver()[0] == "glibc"
    and Path("/proc/self/stat").exists()
)
needs_glibc = pytest.mark.skipif(
    not GLIBC_LINUX, reason="the heap policy is glibc's mallopt on Linux"
)

#: ~1 MB float32, smooth enough to compress like a science field
FIELD = (
    np.sin(np.linspace(0, 12, 512))[:, None]
    * np.cos(np.linspace(0, 9, 512))[None, :]
    + 0.01 * np.random.default_rng(4303).normal(size=(512, 512))
).astype(np.float32)
#: (codec, tiles): the two-band request fans out to both workers
REQUESTS = (("wavesz-dp", 2), ("sz14", 1))
#: minor faults one steady-state request may add, per process group
FAULTS_PER_REQUEST = 8


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))


def _stat(pid):
    """``(ppid, minflt)`` of a live process, or None."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = text[text.rindex(")") + 2:].split()
    return int(fields[1]), int(fields[7])


def _children(pid):
    return [
        int(entry.name) for entry in Path("/proc").iterdir()
        if entry.name.isdigit()
        and (_stat(entry.name) or (None, None))[0] == pid
    ]


def _faults(pids):
    return sum((_stat(pid) or (0, 0))[1] for pid in pids)


@needs_glibc
class TestSteadyStateFaults:
    def test_served_requests_fault_in_nothing_new(self, tmp_path):
        """After warm-up (both workers forked, the replay cache full),
        a round of compress + decompress requests on a ~1 MB field adds
        at most a few minor faults per request to the server and to its
        workers: every temporary lands in heap a previous request freed."""
        log = tmp_path / "serve.log"
        with open(log, "wb") as sink:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--workers", "2"],
                stdout=sink, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, env=_env(), cwd=tmp_path,
                start_new_session=True,
            )
        try:
            deadline = time.monotonic() + 20
            banner = None
            while banner is None and time.monotonic() < deadline:
                time.sleep(0.02)
                banner = re.search(r"listening on [\w.]+:(\d+)", log.read_text())
            assert banner, log.read_text()
            with ServiceClient(port=int(banner.group(1))) as client:
                payloads = [
                    client.compress(FIELD, codec, tiles=tiles)[0]
                    for codec, tiles in REQUESTS
                ]

                def round_():
                    for (codec, tiles), payload in zip(REQUESTS, payloads):
                        client.compress(FIELD, codec, tiles=tiles)
                        client.decompress(payload)

                # every decompress reply is a ~1 MB frame the replay
                # cache keeps: warm up until it holds all it may
                replies_per_round = len(REQUESTS) * FIELD.nbytes
                for _ in range(_IDEM_CACHE_BYTES // replies_per_round + 3):
                    round_()
                workers = _children(proc.pid)
                assert len(workers) >= 2, workers
                rounds = 4
                before = _faults([proc.pid]), _faults(workers)
                for _ in range(rounds):
                    round_()
                after = _faults([proc.pid]), _faults(workers)
                gauges = client.stats()["gauges"]
        finally:
            # SIGTERM: the server drains and unlinks its shm segments
            proc.terminate()
            try:
                proc.wait(30)
            finally:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait(10)
        requests = rounds * 2 * len(REQUESTS)
        server, pool = (a - b for a, b in zip(after, before))
        assert server <= FAULTS_PER_REQUEST * requests, (server, requests)
        assert pool <= FAULTS_PER_REQUEST * requests, (pool, requests)
        held = gauges["server.replay_bytes"]
        assert _IDEM_CACHE_BYTES - 2 * FIELD.nbytes < held <= _IDEM_CACHE_BYTES


_BOUND_SCRIPT = textwrap.dedent("""
    import json, os
    import numpy as np
    from repro.service.server import _keep_freed_heap

    bound = 8 << 20
    chunk = bound // 16
    page = os.sysconf("SC_PAGE_SIZE")

    def rss():
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * page

    assert _keep_freed_heap(bound)
    base = rss()
    held = [np.ones(chunk, np.uint8) for _ in range(8)]   # half the bound
    del held
    kept = rss() - base
    held = [np.ones(chunk, np.uint8) for _ in range(32)]  # twice the bound
    peak = rss() - base
    del held
    after = rss() - base
    print(json.dumps({"bound": bound, "kept": kept, "peak": peak,
                      "after": after}))
""")


@needs_glibc
class TestTheBoundHolds:
    def test_freed_heap_is_kept_up_to_the_bound_and_no_further(self):
        out = subprocess.run(
            [sys.executable, "-c", _BOUND_SCRIPT], env=_env(),
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        m = json.loads(out.strip().splitlines()[-1])
        bound = m["bound"]
        assert m["peak"] >= 1.5 * bound, m  # the allocations were real
        assert m["kept"] >= bound // 4, m   # freed below the bound: kept
        assert m["after"] <= bound, m       # freed past it: returned


class TestEmbeddingIsUntouched:
    def test_an_in_process_server_calls_no_mallopt(self, monkeypatch):
        looked_up = []
        real = ctypes.CDLL

        class Spy:
            """``ctypes.CDLL`` recording every ``mallopt`` looked up."""

            def __init__(self, *args, **kwargs):
                self._lib = real(*args, **kwargs)

            def __getattr__(self, name):
                if name == "mallopt":
                    looked_up.append(name)
                return getattr(self._lib, name)

        monkeypatch.setattr(ctypes, "CDLL", Spy)
        srv = CompressionServer(port=0, workers=1, pool_kind="process")
        with serving(srv), ServiceClient(port=srv.port) as client:
            payload, _ = client.compress(FIELD[:128], "sz14")
            client.decompress(payload)
        assert looked_up == []

    def test_the_serve_entry_points_set_the_policy(self, monkeypatch, tmp_path):
        import repro.shard.server as shard_server
        from repro.shard import LocalShardCluster, serve_gateway

        called = []
        monkeypatch.setattr(
            server_module, "_keep_freed_heap", lambda: called.append("serve")
        )
        monkeypatch.setattr(
            shard_server, "_keep_freed_heap", lambda: called.append("gateway")
        )

        async def briefly(coro):
            try:
                await asyncio.wait_for(coro, 0.3)
            except asyncio.TimeoutError:
                pass

        asyncio.run(briefly(server_module.serve(port=0, workers=0)))
        with LocalShardCluster([tmp_path / "s0"], replicas=1) as cluster:
            asyncio.run(briefly(serve_gateway(cluster.gateway(), port=0)))
        assert called == ["serve", "gateway"]


class TestReplayCacheGauges:
    def test_stats_show_what_the_replay_cache_holds(self):
        srv = CompressionServer(port=0, workers=0)
        with serving(srv), ServiceClient(port=srv.port) as client:
            gauges = client.stats()["gauges"]
            assert gauges["server.replay_bytes"] == 0
            assert gauges["server.replay_entries"] == 0
            payload, _ = client.compress(FIELD, "sz14")
            client.decompress(payload)
            gauges = client.stats()["gauges"]
        assert gauges["server.replay_entries"] == 2
        # the two reply frames: the payload, and the field, plus headers
        held = gauges["server.replay_bytes"]
        assert FIELD.nbytes + len(payload) < held < FIELD.nbytes + len(payload) + 4096
