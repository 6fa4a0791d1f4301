"""What a killed ``wavesz serve`` leaves in ``/dev/shm`` is reclaimed.

A server's arena unlinks its segments on every orderly exit.  SIGKILL
(of the server and its whole process group: workers and resource
tracker) skips all of that, so the segments outlive it.  Each arena
segment is named with its owner's pid, and the next process that opens
an arena unlinks those whose owner is gone — and only those.
"""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.service import ServiceClient
from repro.service.shm import SHM_MIN_BYTES, ShmArena

SRC = Path(__file__).resolve().parents[2] / "src"
SHM = Path("/dev/shm")

pytestmark = pytest.mark.skipif(
    not (SHM.is_dir() and ShmArena.available()),
    reason="needs POSIX shared memory listed under /dev/shm",
)

#: a compress body the server streams into an arena segment
FIELD = np.random.default_rng(45).normal(size=(128, 256)).astype(np.float32)


def _segments():
    return {name for name in os.listdir(SHM) if name.startswith("wsz")}


def _serve(tmp_path, tag):
    """A ``wavesz serve --workers 2`` subprocess leading its own process
    group, and its port once it listens."""
    log = tmp_path / f"{tag}.log"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    with open(log, "wb") as sink:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "2"],
            stdout=sink, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            env=env, cwd=tmp_path, start_new_session=True,
        )
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        banner = re.search(r"listening on [\w.]+:(\d+)", log.read_text())
        if banner:
            return proc, int(banner.group(1))
        if proc.poll() is not None:
            break
        time.sleep(0.02)
    _kill_group(proc)
    pytest.fail(f"wavesz serve did not start:\n{log.read_text()}")


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait(10)


def test_a_killed_servers_segments_are_reclaimed_by_the_next_one(tmp_path):
    assert FIELD.nbytes >= SHM_MIN_BYTES
    live = ShmArena()  # this process's arena: its owner stays alive
    try:
        mine = live.allocate(4096)
        before = _segments()
        dead, port = _serve(tmp_path, "dead")
        try:
            with ServiceClient(port=port) as client:
                payload, _ = client.compress(FIELD, "wavesz-dp")
                assert client.decompress(payload).shape == FIELD.shape
            left = _segments() - before
            assert left, "the request left no segment in the arena's pool"
        finally:
            _kill_group(dead)  # no exit path of the server runs
        assert left <= _segments(), "SIGKILL itself unlinked the segments"

        survivor, _ = _serve(tmp_path, "next")
        try:
            remaining = _segments()
        finally:
            survivor.terminate()
            try:
                survivor.wait(30)
            finally:
                _kill_group(survivor)
        assert not left & remaining, sorted(left & remaining)
        assert mine in remaining, "a live owner's segment was unlinked"
        live.release(mine)
    finally:
        live.close()
