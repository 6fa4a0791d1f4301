"""Chaos harness: randomized fault schedules, invariant assertions.

The unit tests kill a ``put`` at every single filesystem step; the chaos
harness complements them with *breadth*: hundreds of seeded schedules
drawn over fault kind × step × crash-resolution randomness, each run
checked against the same invariants.  A failing run prints as one line —
``suite=store seed=1234 run=57`` — and replays deterministically from
exactly those numbers.

Store suite (one run)
    Start from a clean two-dataset store, attempt an update ``put``
    under a :class:`~repro.faults.fsim.CrashFS` carrying one seeded
    fault, then pull the power (``crash_and_restore``) and reopen with
    the real filesystem.  Invariants:

    * ``reopen-clean``          — recovery never raises;
    * ``bystander-intact``      — the untouched dataset reads bit-exact;
    * ``acked-durable``         — an acked put survives the power cut
      (waived when the one fault was a lying fsync — see
      ``docs/RESILIENCE.md`` on the single-lying-fsync scope);
    * ``interrupted-invisible`` — a put killed *before its commit point*
      (the journal-entry unlink) leaves the old value; a crash inside
      the commit window may resolve either way — the lost-ack case,
      which is why the service pairs this with idempotent request ids;
    * ``old-or-new``            — the target is bit-exact old *or* new,
      never a hybrid;
    * ``fsck-converges``        — ``fsck(repair=True)`` then ``fsck()``
      ends at zero findings; when the one fault was a lying fsync the
      store may instead hold *detected* damage (fsck reports it) —
      never a silent wrong answer.

Service suite (one run)
    A live server (thread pool) is driven through a client whose first
    connections carry seeded wire faults (reset / stall / drip).
    Invariants: every request eventually succeeds bit-exactly
    (``converges``), and no request executes twice despite retries
    (``at-most-once``, via the server's completed-job counters).
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from ..errors import ReproError, SimulatedCrash, StoreError
from .fsim import CrashFS, FsFault, FsFaultKind
from .netsim import FlakySocketFactory

__all__ = ["ChaosViolation", "ChaosReport", "ChaosHarness"]

#: Steps an update put can take is ~21; drawing up to a slightly larger
#: ceiling also exercises schedules that miss entirely (the clean path
#: followed by a power cut — which must preserve the acked put).
_MAX_STEP = 26

_STORE_KINDS = (
    FsFaultKind.CRASH,
    FsFaultKind.TORN_WRITE,
    FsFaultKind.FAIL_RENAME,
    FsFaultKind.ENOSPC,
    FsFaultKind.DROP_FSYNC,
)


@dataclass(frozen=True)
class ChaosViolation:
    """One broken invariant: which run, which promise, what happened."""

    suite: str
    seed: int
    run: int
    invariant: str
    detail: str

    def __str__(self) -> str:
        return (
            f"[{self.suite} seed={self.seed} run={self.run}] "
            f"{self.invariant}: {self.detail}"
        )


@dataclass(frozen=True)
class ChaosReport:
    """Outcome of one sweep: coverage counters plus every violation."""

    suite: str
    seed: int
    runs: int
    faults_fired: Mapping[str, int]
    violations: tuple[ChaosViolation, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        cov = ", ".join(
            f"{k}={v}" for k, v in sorted(self.faults_fired.items())
        ) or "none fired"
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        return (
            f"chaos {self.suite}: {status} over {self.runs} schedule(s) "
            f"(seed {self.seed}; fired: {cov})"
        )

    def assert_clean(self) -> None:
        if self.ok:
            return
        lines = [f"  {v}" for v in self.violations[:8]]
        raise AssertionError(
            f"{len(self.violations)} chaos violation(s):\n" + "\n".join(lines)
        )


class ChaosHarness:
    """Runs seeded fault-schedule sweeps and checks the invariants."""

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = seed

    def _run_seed(self, run: int) -> int:
        # distinct, stable stream per run; avoids Random(tuple) hashing.
        return self.seed * 1_000_003 + run

    # -- store suite ------------------------------------------------------

    def run_store(self, work_dir: str | Path, *, runs: int = 200) -> ChaosReport:
        """Sweep ``runs`` crash schedules over the array store."""
        from ..store import ArrayStore

        work = Path(work_dir)
        work.mkdir(parents=True, exist_ok=True)
        template = work / "template"
        rng0 = np.random.default_rng(self.seed)
        keep = rng0.normal(size=(8, 12)).astype(np.float32)
        old = rng0.normal(size=(8, 12)).astype(np.float32)
        base = ArrayStore(template)
        base.put("keep", keep, "sz10", n_tiles=2)
        base.put("target", old, "sz10", n_tiles=2)
        keep_val = base.read("keep").data
        old_val = base.read("target").data

        violations: list[ChaosViolation] = []
        fired: dict[str, int] = {}
        scratch = work / "scratch"
        for run in range(runs):
            rs = self._run_seed(run)
            rng = random.Random(rs)
            shutil.rmtree(scratch, ignore_errors=True)
            shutil.copytree(template, scratch)
            # shift far beyond the error bound so old and new quantize to
            # visibly different stored values.
            new = (
                old + np.float32(1.0 + rng.randrange(1000)) / 16.0
            ).astype(np.float32)
            fault = FsFault(
                kind=_STORE_KINDS[rng.randrange(len(_STORE_KINDS))],
                step=1 + rng.randrange(_MAX_STEP),
                seed=rng.getrandbits(31),
            )
            fs = CrashFS(scratch, schedule=(fault,), seed=rs)

            def bad(invariant: str, detail: str, _run: int = run) -> None:
                violations.append(ChaosViolation(
                    "store", self.seed, _run, invariant, detail
                ))

            # the value an undisturbed put of `new` stores (the lossy
            # round-trip) — computed on a clean copy so the fault run
            # has a bit-exact reference even when it dies mid-put.
            expected = work / "expected"
            shutil.rmtree(expected, ignore_errors=True)
            shutil.copytree(template, expected)
            clean = ArrayStore(expected)
            clean.put("target", new, "sz10", n_tiles=2)
            new_val = clean.read("target").data

            acked = False
            try:
                store = ArrayStore(scratch, fs=fs)
                store.put("target", new, "sz10", n_tiles=2)
                acked = True
            except SimulatedCrash:
                pass
            except StoreError:
                pass  # survivable fault: put failed and rolled back
            # once the journal-entry unlink has been issued, the put is
            # inside its commit window: a crash there may land old or
            # new (the classic lost ack), both legitimate.
            committing = any(
                op == "unlink" and os.sep + "journal" + os.sep in key
                for op, key in fs.ops
            )
            for f in fs.fired:
                fired[f.kind.value] = fired.get(f.kind.value, 0) + 1
            lying = any(
                f.kind is FsFaultKind.DROP_FSYNC for f in fs.fired
            )
            # pull the power, then come back up on the real filesystem.
            fs.crash_and_restore(rng.getrandbits(31))
            try:
                after = ArrayStore(scratch)
            except ReproError as exc:
                bad("reopen-clean", f"{type(exc).__name__}: {exc}")
                continue
            try:
                keep_now = after.read("keep").data
                if not np.array_equal(keep_now, keep_val):
                    bad(
                        "bystander-intact",
                        "'keep' changed across the crash",
                    )
            except ReproError as exc:
                bad("bystander-intact", f"{type(exc).__name__}: {exc}")
            detected_loss = False
            try:
                target = after.read("target").data
            except ReproError as exc:
                # with a lying disk an acked put may be lost — but never
                # silently: the checksum walk detects it.  Any other
                # schedule must leave the target readable.
                target = None
                if lying:
                    detected_loss = True
                else:
                    bad(
                        "old-or-new",
                        f"target unreadable: {type(exc).__name__}: {exc}",
                    )
            if target is not None:
                is_old = np.array_equal(target, old_val)
                is_new = np.array_equal(target, new_val)
                if not (is_old or is_new):
                    bad(
                        "old-or-new",
                        "'target' is neither old nor new value",
                    )
                elif acked and not lying and not is_new:
                    bad("acked-durable", "acked put lost after power cut")
                elif not acked and not committing and not is_old:
                    bad(
                        "interrupted-invisible",
                        "pre-commit put became visible after recovery",
                    )
            after.fsck(repair=True)
            check = after.fsck(deep=True)
            if not check.ok and not lying:
                bad("fsck-converges", check.summary())
            if detected_loss and not check.errors:
                bad(
                    "fsck-converges",
                    "target unreadable but fsck reports no error",
                )
        shutil.rmtree(scratch, ignore_errors=True)
        return ChaosReport(
            "store", self.seed, runs, fired, tuple(violations)
        )

    # -- service suite ----------------------------------------------------

    def run_service(
        self, *, runs: int = 6, ops_per_run: int = 4, kill_runs: int = 2
    ) -> ChaosReport:
        """Sweep flaky-wire schedules against a live server, then SIGKILL
        process-pool workers holding shared-memory leases.

        The wire phase checks ``converges`` / ``at-most-once`` as before.
        The kill phase (skipped where shared memory is unavailable) runs
        a process-pool scheduler on the shm transport, SIGKILLs a worker
        while jobs are in flight — i.e. mid-lease — and checks:

        * ``converges-after-kill`` — every job still completes with the
          byte-exact direct-path payload (the dead worker's slot
          refills and the transient retry re-dispatches its job);
        * ``lease-reclaimed``     — after the batch drains no segment
          is leased, and after ``stop()`` the arena is empty: a killed
          worker cannot strand ``/dev/shm``.
        """
        import asyncio
        import threading

        from ..codec.registry import get_codec
        from ..service import (
            CompressionServer,
            RetryPolicy,
            ServiceClient,
        )

        violations: list[ChaosViolation] = []
        fired: dict[str, int] = {}
        rng0 = np.random.default_rng(self.seed)
        fld = rng0.normal(size=(8, 12)).astype(np.float32)
        direct = get_codec("sz10").compress(fld, 1e-3, "vr_rel").payload

        loop = asyncio.new_event_loop()
        srv = CompressionServer(port=0, workers=2, pool_kind="thread")
        started = threading.Event()

        def runner() -> None:
            asyncio.set_event_loop(loop)
            loop.run_until_complete(srv.start())
            started.set()
            loop.run_forever()

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        if not started.wait(10):  # pragma: no cover - startup failure
            raise RuntimeError("chaos service failed to start")
        try:
            for run in range(runs):
                rs = self._run_seed(run)
                factory = FlakySocketFactory(
                    seed=rs, faulty_connections=1 + rs % 2,
                    max_after_bytes=48,
                )
                before = srv.scheduler.stats().totals.get("completed", 0)
                try:
                    client = ServiceClient(
                        port=srv.port, timeout=2.0,
                        retry=RetryPolicy(attempts=6, base_s=0.01, seed=rs),
                        socket_factory=factory,
                    )
                    with client:
                        for _ in range(ops_per_run):
                            payload, _info = client.compress(
                                fld, "sz10", eb=1e-3
                            )
                            if payload != direct:
                                violations.append(ChaosViolation(
                                    "service", self.seed, run, "converges",
                                    "payload differs from the direct path",
                                ))
                except ReproError as exc:
                    violations.append(ChaosViolation(
                        "service", self.seed, run, "converges",
                        f"{type(exc).__name__}: {exc}",
                    ))
                for f in factory.faults_injected:
                    fired[f.kind.value] = fired.get(f.kind.value, 0) + 1
                after = srv.scheduler.stats().totals.get("completed", 0)
                # DRIP never aborts a request, so every op runs exactly
                # once; RESET/STALL retries must dedup via request ids.
                if after - before > ops_per_run:
                    violations.append(ChaosViolation(
                        "service", self.seed, run, "at-most-once",
                        f"{after - before} executions for "
                        f"{ops_per_run} request(s)",
                    ))
        finally:
            asyncio.run_coroutine_threadsafe(srv.stop(), loop).result(10)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10)
        for kill_run in range(kill_runs):
            self._service_kill_run(runs + kill_run, violations, fired)
        return ChaosReport(
            "service", self.seed, runs + kill_runs, fired, tuple(violations)
        )

    def _service_kill_run(
        self, run: int, violations: list[ChaosViolation], fired: dict[str, int]
    ) -> None:
        """One SIGKILL-mid-lease schedule (see :meth:`run_service`)."""
        import asyncio
        import signal

        from ..codec.registry import get_codec
        from ..service import BatchScheduler
        from ..service.jobs import make_job
        from ..service.shm import ShmArena

        if not ShmArena.available():  # pragma: no cover - no /dev/shm
            return

        def bad(invariant: str, detail: str) -> None:
            violations.append(ChaosViolation(
                "service", self.seed, run, invariant, detail
            ))

        rs = self._run_seed(run)
        rng = np.random.default_rng(rs)
        # comfortably above SHM_MIN_BYTES so every job leases a segment
        fld = rng.normal(size=(160, 160)).astype(np.float32)
        direct = get_codec("sz10").compress(fld, 1e-3, "vr_rel").payload
        fired["worker-kill"] = fired.get("worker-kill", 0) + 1

        async def drive() -> None:
            sched = BatchScheduler(
                workers=2, pool_kind="process", max_retries=4,
                backoff_base_s=0.01, transport="shm",
            )
            sched.start()
            try:
                handles = [
                    await sched.submit(
                        make_job("sz10", fld, eb=1e-3), block=True
                    )
                    for _ in range(4)
                ]
                # let dispatch copy fields into segments and hand out
                # leases, then kill one worker mid-lease.
                await asyncio.sleep(0.02 + 0.02 * (rs % 3))
                pids = sched.pool.worker_pids()
                if pids:
                    try:
                        os.kill(pids[rs % len(pids)], signal.SIGKILL)
                    except OSError:  # pragma: no cover - gone already
                        pass
                for h in handles:
                    try:
                        result = await sched.wait(h)
                    except ReproError as exc:
                        bad(
                            "converges-after-kill",
                            f"job failed after worker kill: "
                            f"{type(exc).__name__}: {exc}",
                        )
                        continue
                    if result.output != direct:
                        bad(
                            "converges-after-kill",
                            "payload differs from the direct path "
                            "after worker kill",
                        )
                arena = sched.transport.arena
                if arena.leased_segments:
                    bad(
                        "lease-reclaimed",
                        f"{arena.leased_segments} segment(s) still "
                        "leased after the batch drained",
                    )
            finally:
                await sched.stop()
            arena = sched.transport.arena
            if arena.resident_bytes:
                bad(
                    "lease-reclaimed",
                    f"{arena.resident_bytes} bytes still resident "
                    "after stop()",
                )
            stranded = [
                entry for entry in (
                    os.listdir("/dev/shm") if os.path.isdir("/dev/shm")
                    else []
                )
                if entry.startswith(arena.prefix)
            ]
            if stranded:
                bad(
                    "lease-reclaimed",
                    f"stranded shm segment(s): {stranded}",
                )

        asyncio.run(drive())

    # -- shard suite ------------------------------------------------------

    def run_shard(
        self, work_dir: str | Path, *, runs: int = 6
    ) -> ChaosReport:
        """Sweep shard-loss and flaky-wire schedules over a 3-shard /
        replicas=2 cluster.

        Each run cycles one of three phases against a seeded victim
        shard and checks the distributed-store promises:

        * ``old-or-new``       — a put interrupted by wire faults leaves
          a read returning bit-exact version 1 *or* version 2, never a
          hybrid;
        * ``acked-durable``    — a put that returned survives gateway
          turnover and shard restarts;
        * ``degraded-ack``     — with one shard down, puts still ack
          (every tile keeps >= 1 replica);
        * ``reads-converge``   — with one shard down (and, in the wire
          phase, flaky sockets on top), full and windowed reads return
          the acked bytes;
        * ``read-repair-converges`` — after the victim returns, one full
          read restores every tile object and manifest replica the
          victim owns, verified directly against its store directory.

        The two shard-loss phases also keep one **warm** reader — opened
        and read before the fault, so it holds version 1's manifest and
        tiles — and hold it to ``acked-durable`` and ``reads-converge``
        through the outage and again once the victim is back: the handle
        a remembered manifest could mislead.
        """
        import json as _json
        from pathlib import Path as _P

        from ..shard import LocalShardCluster, manifest_key

        work_dir = _P(work_dir)
        violations: list[ChaosViolation] = []
        fired: dict[str, int] = {}
        phases = ("wire-mid-put", "down-before-put", "down-mid-read")
        for run in range(runs):
            rs = self._run_seed(run)
            rng = np.random.default_rng(rs)
            phase = phases[run % len(phases)]
            fired[phase] = fired.get(phase, 0) + 1
            victim = int(rng.integers(0, 3))
            scratch = work_dir / f"shard-run{run}"
            roots = [scratch / f"s{i}" for i in range(3)]

            def bad(invariant: str, detail: str, _run: int = run) -> None:
                violations.append(ChaosViolation(
                    "shard", self.seed, _run, invariant, detail
                ))

            f1 = rng.normal(size=(24, 32)).astype(np.float32)
            f2 = (f1 * 1.5 + rng.normal(size=(24, 32))).astype(np.float32)
            with LocalShardCluster(roots, replicas=2) as cluster:
                gw = cluster.gateway()
                try:
                    gw.put("d.ts", f1, "sz14", 1e-3, n_tiles=4)
                    v1 = gw.read("d.ts").data
                except ReproError as exc:
                    bad("acked-durable", f"clean baseline put failed: {exc}")
                    gw.close()
                    continue

                acked = None
                window = (slice(3, 17), slice(5, 29))
                warm = None
                if phase != "wire-mid-put":
                    warm = cluster.gateway(timeout=2.0)
                    try:
                        warm.read("d.ts")
                        warm.read_slice("d.ts", window)
                    except ReproError as exc:
                        bad("reads-converge", f"warm-up read failed: {exc}")

                def check_warm(when: str) -> None:
                    """acked ⇒ new, windowed ≡ full — through ``warm``."""
                    if warm is None:
                        return
                    try:
                        full = warm.read("d.ts").data
                        part = warm.read_slice("d.ts", window).data
                    except ReproError as exc:
                        bad("reads-converge",
                            f"{phase}: warm handle read {when} failed: {exc}")
                        return
                    if acked is not None and np.array_equal(full, v1):
                        bad("acked-durable",
                            f"warm handle served the old version {when}, "
                            "after an acked update put")
                    if not np.array_equal(part, full[window]):
                        bad("reads-converge",
                            f"warm handle {when}: windowed read disagrees "
                            "with the full read")

                if phase == "wire-mid-put":
                    flaky = cluster.gateway(
                        timeout=2.0,
                        socket_factory=FlakySocketFactory(
                            seed=rs, faulty_connections=1 + rs % 2,
                            max_after_bytes=64,
                        ),
                    )
                    try:
                        acked = flaky.put("d.ts", f2, "sz14", 1e-3, n_tiles=4)
                    except ReproError:
                        acked = None  # old-or-new checked below either way
                    finally:
                        flaky.close()
                elif phase == "down-before-put":
                    cluster.stop_shard(victim)
                    try:
                        acked = gw.put("d.ts", f2, "sz14", 1e-3, n_tiles=4)
                        if not acked.degraded:
                            bad("degraded-ack",
                                "put with a shard down not flagged degraded")
                    except ReproError as exc:
                        bad("degraded-ack",
                            f"put with one of 3 shards down refused: {exc}")
                else:  # down-mid-read
                    try:
                        acked = gw.put("d.ts", f2, "sz14", 1e-3, n_tiles=4)
                    except ReproError as exc:
                        bad("acked-durable", f"clean put failed: {exc}")
                    cluster.stop_shard(victim)
                check_warm("with the victim down")

                # reads while (possibly) degraded — fresh gateway, no cache
                reader = cluster.gateway(
                    timeout=2.0,
                    socket_factory=(
                        FlakySocketFactory(
                            seed=rs + 1, faulty_connections=1,
                            max_after_bytes=64,
                        ) if phase == "down-mid-read" else None
                    ),
                )
                got = None
                try:
                    got = reader.read("d.ts").data
                    is_v1 = np.array_equal(got, v1)
                    if acked is not None:
                        # the update was acked: the old version is gone
                        if is_v1:
                            bad("acked-durable",
                                "read returned the old version after an "
                                "acked update put")
                    elif not is_v1:
                        # no ack: the new bytes are allowed too, but a
                        # hybrid is not — reads must be self-consistent.
                        again = reader.read("d.ts").data
                        if not np.array_equal(got, again):
                            bad("old-or-new",
                                "two reads of the same version disagree")
                    sl = reader.read_slice("d.ts", window).data
                    if not np.array_equal(sl, got[window]):
                        bad("reads-converge",
                            "windowed read disagrees with the full read")
                except ReproError as exc:
                    bad("reads-converge",
                        f"{phase}: read with cluster degraded failed: {exc}")
                finally:
                    reader.close()

                # victim returns: one full read must re-converge replicas
                if phase in ("down-before-put", "down-mid-read"):
                    cluster.start_shard(victim)
                    check_warm("after the victim restarted")
                    repairer = cluster.gateway()
                    try:
                        healed = repairer.read("d.ts").data
                        if (
                            acked is not None and got is not None
                            and not np.array_equal(healed, got)
                        ):
                            bad("acked-durable",
                                "read after victim restart lost the "
                                "acked bytes")
                        if acked is not None:
                            vid = cluster.shard_id(victim)
                            ring = repairer.ring
                            vroot = roots[victim]
                            for d in acked.tile_digests:
                                if vid in ring.owners(d, 2) and not (
                                    vroot / "objects" / d
                                ).exists():
                                    bad("read-repair-converges",
                                        f"tile {d[:12]}... not restored "
                                        f"to shard {victim}")
                            if vid in ring.owners(manifest_key("d.ts"), 2):
                                mp = vroot / "manifests" / "d.ts.json"
                                if not mp.exists():
                                    bad("read-repair-converges",
                                        "manifest replica not restored")
                                elif (
                                    _json.loads(mp.read_text())
                                    .get("version") != acked.version
                                ):
                                    bad("read-repair-converges",
                                        "manifest replica restored at a "
                                        "stale version")
                    except ReproError as exc:
                        bad("read-repair-converges",
                            f"read after victim restart failed: {exc}")
                    finally:
                        repairer.close()
                if warm is not None:
                    warm.close()
                gw.close()
            shutil.rmtree(scratch, ignore_errors=True)
        return ChaosReport(
            "shard", self.seed, runs, fired, tuple(violations)
        )
