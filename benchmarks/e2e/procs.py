"""Processes and other things that outlive a function: servers, temp
roots, shared-memory segments — and the counting seams the layers offer.

Everything started here is stopped by the ``with`` block that started
it, on success, failure and Ctrl-C alike.  All files live under
``benchmarks/e2e/out/`` (git-ignored), never outside the checkout.
"""

from __future__ import annotations

import ctypes
import os
import platform
import re
import resource
import shutil
import signal
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Iterator

from repro.faults.fsim import OsFileSystem

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
OUT = HERE / "out"

START_DEADLINE_S = 10.0
_LISTENING = re.compile(r"listening on ([\w.\-]+):(\d+)")
_SHM_DIR = Path("/dev/shm")


class HarnessError(RuntimeError):
    """The harness could not set its stage (not an operation failure)."""


@contextmanager
def scratch(tag: str) -> Iterator[Path]:
    """A private directory under ``out/tmp``, removed on exit."""
    root = OUT / "tmp" / f"{tag}-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


class Server:
    """One ``wavesz serve --port 0`` subprocess."""

    def __init__(self, proc: subprocess.Popen, log: Path) -> None:
        self.proc = proc
        self.log = log
        self.host = ""
        self.port = 0

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def wait_ready(self) -> None:
        """Parse the "listening on" line; a clear error after 10 s."""
        deadline = time.monotonic() + START_DEADLINE_S
        while time.monotonic() < deadline:
            m = _LISTENING.search(self.log.read_text(errors="replace"))
            if m:
                self.host, self.port = m.group(1), int(m.group(2))
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        state = (
            f"exited with code {self.proc.returncode}"
            if self.proc.poll() is not None
            else f"printed no 'listening on' line within {START_DEADLINE_S:g} s"
        )
        raise HarnessError(
            f"wavesz serve {state}; its output was:\n"
            + self.log.read_text(errors="replace")[-2000:]
        )

    def stop(self) -> None:
        """SIGTERM (the server drains), then SIGKILL to it and its pool
        workers (it leads its own process group); always reaped."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()


def spawn_server(workdir: Path, tag: str, *args: str) -> Server:
    log = workdir / f"{tag}.log"
    with open(log, "wb") as sink:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *args],
            stdout=sink, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            env=_child_env(), cwd=workdir, start_new_session=True,
        )
    return Server(proc, log)


@contextmanager
def servers(workdir: Path, specs: dict[str, tuple[str, ...]]) -> Iterator[dict[str, Server]]:
    """Start the named servers together, wait until all listen, stop all."""
    started: dict[str, Server] = {}
    try:
        for tag, args in specs.items():
            started[tag] = spawn_server(workdir, tag, *args)
        for server in started.values():
            server.wait_ready()
        yield started
    finally:
        for server in started.values():
            server.stop()


# -- orphans -----------------------------------------------------------------------
#
# A stopped server leaves processes of its own behind for a moment: its
# multiprocessing resource tracker exits only once it sees the server's
# pipe close, and a server that had to be killed leaves its pool workers.
# So does this process (``WorkerPool`` and ``ShmArena`` on the ladder start
# a tracker here too).  ``adopt_orphans`` makes every such descendant a
# child of this process when its parent dies, and ``reap_descendants``
# waits for all of them, so nothing the run started outlives it.

_PR_SET_CHILD_SUBREAPER = 36
ORPHAN_GRACE_S = 5.0


def adopt_orphans() -> None:
    """Become the reaper of all descendants (Linux; a no-op elsewhere)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # gone meanwhile
        # "pid (comm) state ppid ..."; comm may itself hold ") "
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.append(int(entry))
    return found


def reap_descendants(grace_s: float = ORPHAN_GRACE_S) -> int:
    """Wait until this process has no child left; how many had to be killed.

    Call it only when every ``Popen`` and pool of the run has been waited
    for.  Children still running after ``grace_s`` get SIGKILL, and so do
    the orphans those leave in turn.
    """
    stop_tracker = getattr(
        getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop_tracker is not None:
        stop_tracker()  # closes its pipe and waits for it
    killed: set[int] = set()
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return len(killed)
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                    killed.add(child)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)


# -- shared memory ---------------------------------------------------------------


def shm_segments() -> set[str]:
    """Names of the service's segments currently in ``/dev/shm``."""
    if not _SHM_DIR.is_dir():
        return set()
    return {p for p in os.listdir(_SHM_DIR) if p.startswith("wsz")}


def sweep_shm(before: set[str]) -> int:
    """Unlink segments that appeared since ``before``; how many leaked."""
    leaked = shm_segments() - before
    for name in leaked:
        try:
            (_SHM_DIR / name).unlink()
        except OSError:
            pass
    return len(leaked)


# -- memory ----------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Harness max RSS + max RSS of the largest reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# -- counting seams ----------------------------------------------------------------


class CountingFS(OsFileSystem):
    """``ArrayStore(fs=...)``: counts fsyncs and bytes written."""

    def __init__(self) -> None:
        self.fsyncs = 0
        self.bytes_written = 0

    def write_bytes(self, path: Path, data: bytes) -> None:
        self.bytes_written += len(data)
        super().write_bytes(path, data)

    def fsync_file(self, path: Path) -> None:
        self.fsyncs += 1
        super().fsync_file(path)

    def fsync_dir(self, path: Path) -> None:
        self.fsyncs += 1
        super().fsync_dir(path)


class _CountingSocket:
    """Delegates to a real socket, counting bytes and ``sendall`` calls."""

    def __init__(self, sock: socket.socket, counts: "WireCounts") -> None:
        self._sock = sock
        self._counts = counts

    def sendall(self, data: bytes) -> None:
        self._counts.sent += len(data)
        self._counts.requests += 1
        self._sock.sendall(data)

    def recv_into(self, buf: Any, *args: Any) -> int:
        n = self._sock.recv_into(buf, *args)
        self._counts.received += n
        return n

    def recv(self, n: int) -> bytes:
        data = self._sock.recv(n)
        self._counts.received += len(data)
        return data

    def __getattr__(self, name: str) -> Any:
        return getattr(self._sock, name)


class WireCounts:
    """``socket_factory=`` for ``ServiceClient`` / ``ShardGateway``.

    One ``sendall`` is one request frame, so ``requests`` counts round
    trips; ``connections`` counts sockets opened.
    """

    def __init__(self) -> None:
        self.connections = 0
        self.requests = 0
        self.sent = 0
        self.received = 0

    def __call__(self, host: str, port: int, timeout: float | None) -> _CountingSocket:
        self.connections += 1
        return _CountingSocket(
            socket.create_connection((host, port), timeout=timeout), self
        )

    def snapshot(self) -> tuple[int, int, int, int]:
        return self.connections, self.requests, self.sent, self.received


# -- host fingerprint --------------------------------------------------------------


def fingerprint(seed: int) -> dict[str, Any]:
    import numpy
    import scipy

    from repro.kernels import active_mode

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO, text=True,
            capture_output=True, timeout=5, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass  # the driver's checkout is not a git repository
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "kernels": active_mode(),
        "commit": commit,
        "seed": seed,
    }
