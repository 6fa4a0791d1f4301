#!/usr/bin/env python3
"""bench_e2e: one end-to-end ledger with per-layer attribution.

One workload, the way the benchmark driver calls it::

    python3 benchmarks/e2e/run.py --workload lib_fields --seed 1 \\
        --seconds 15 --trace 0

prints every metric by name with its unit, then one JSON object as the
last line (``correct``, ``attempted``, ``failed``, ``metrics``): the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  It exits non-zero when any operation failed.

All workloads, each in a fresh child process::

    python3 benchmarks/e2e/run.py --seed 1 [--trace] [--quick]
    python3 benchmarks/e2e/run.py --repeat 2      # repeatability table
    python3 benchmarks/e2e/run.py --selfcheck | --list

See README.md beside this file for the metrics, workloads and the ladder.
"""

from __future__ import annotations

import argparse
import importlib
import json
import re
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"bench_e2e: the program under test is missing ({SRC}/repro)")
sys.path.insert(0, str(SRC))

import spec  # noqa: E402
from timing import CAL, median  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
CHILD_TIMEOUT_S = 170


#: workload -> (module, function); imported on demand, one per process
WORKLOAD_FNS = {
    spec.LIB: ("wl_lib", "run"),
    spec.SMALL: ("wl_service", "run_small"),
    spec.LARGE: ("wl_service", "run_large"),
    spec.LOCAL: ("wl_store", "run_local"),
    spec.SHARDED: ("wl_store", "run_sharded"),
}


def _workload_fn(name: str):
    if name not in WORKLOAD_FNS:
        raise SystemExit(f"unknown workload {name!r}; try --list")
    module, function = WORKLOAD_FNS[name]
    return getattr(importlib.import_module(module), function)


# -- one workload, in this process ---------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> int:
    import inputs
    import procs
    from harness import Ctx, finish_end_to_end, metrics_for

    fn = _workload_fn(name)
    shm_before = procs.shm_segments()
    with procs.scratch(name) as workdir:
        ctx = Ctx(name, seed, seconds, trace, quick, workdir)
        try:
            fn(ctx)
        finally:
            killed = procs.reap_descendants()
            leaked = procs.sweep_shm(shm_before)
    CAL.dump(procs.OUT / f"samples_{name}_trace{int(trace)}.json")
    if trace:
        ctx.put("trace.spans", len(ctx.tracer.spans))
        if name in spec.SERVICE:
            ctx.put("service.shm.leaked_segments", leaked)
        ctx.tracer.dump(
            procs.OUT / f"trace_{name}.json",
            {"workload": name, "host": procs.fingerprint(seed)},
        )
    else:
        finish_end_to_end(ctx, procs.peak_rss_mb())
    if leaked:
        ctx.ledger.fail("teardown", procs.HarnessError(
            f"{leaked} shared-memory segment(s) survived the servers"
        ))

    metrics = metrics_for(ctx)
    print(f"== {name}  seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"K={ctx.notes.get('K', '-')} "
          f"schedule={inputs.schedule_hash(name, seed, seconds)}"
          + ("  [smoke]" if quick else ""))
    for metric, row in metrics.items():
        if row["value"] or not trace:
            print(f"  {metric:<44} {row['value']:>14.4f} {row['unit']}")
    for label, note in ctx.notes.items():
        if isinstance(note, dict) and "median" in note:
            tail = (f"  p{note['tail_pct']:.1f}={note['tail']:.3f}"
                    if note["tail_pct"] else "")
            print(f"  samples {label}: n={note['n']} q1={note['q1']:.3f} "
                  f"median={note['median']:.3f} q3={note['q3']:.3f} "
                  f"{note['unit']}{tail}")
        else:
            print(f"  note {label}: {note}")
    if killed:
        print(f"  note teardown: {killed} orphaned process(es) had to be killed")
    for reason in ctx.ledger.reasons:
        print(f"  FAILED {reason}")
    print(f"  ops failed {ctx.ledger.failed} / attempted {ctx.ledger.attempted}")

    ok = ctx.ledger.failed == 0 and ctx.ledger.attempted > 0
    result = {
        "correct": ok,
        "attempted": max(1, ctx.ledger.attempted),
        "failed": ctx.ledger.failed,
        "metrics": metrics,
    }
    if quick:
        result["smoke"] = True  # never compare a smoke run against a baseline
    print(json.dumps(result))
    return 0 if ok else 1


# -- all workloads, one child process each -----------------------------------------


def _child(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", f"{seconds:g}",
           "--trace", str(int(trace))] + (["--quick"] if quick else [])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        # Ctrl-C, SIGTERM or a timeout: the child tears its servers down
        # on SIGTERM; escalate only if it does not.
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        raise
    lines = out.strip().splitlines()
    sys.stdout.write("".join(f"{line}\n" for line in lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{name}: child exited {proc.returncode} without a result")
    result["exit_code"] = proc.returncode
    return result


def run_set(seed: int, seconds: float, trace: bool, quick: bool,
            only: str | None = None) -> dict:
    import procs

    names = [w.name for w in spec.WORKLOADS if only in (None, w.name)]
    ledger: dict = {
        "bench": "bench_e2e", "smoke": quick, "seconds": seconds,
        "host": procs.fingerprint(seed), "workloads": {},
    }
    for name in names:
        entry = {"end_to_end": _child(name, seed, seconds, False, quick)}
        if trace:
            entry["per_layer"] = _child(name, seed, seconds, True, quick)
        ledger["workloads"][name] = entry
    runs = [r for e in ledger["workloads"].values() for r in e.values()]
    ledger["ops_attempted"] = sum(r["attempted"] for r in runs)
    ledger["ops_failed"] = sum(r["failed"] for r in runs)
    ledger["correct"] = all(r["correct"] for r in runs)
    return ledger


def _print_set(ledger: dict) -> None:
    print("\n== end-to-end ledger")
    names = list(ledger["workloads"])
    print(f"  {'metric':<18}" + "".join(f"{n:>18}" for n in names))
    for m in spec.END_TO_END:
        cells = "".join(
            f"{ledger['workloads'][n]['end_to_end']['metrics'][m.name]['value']:>18.4f}"
            for n in names
        )
        print(f"  {m.name:<18}{cells}  {m.unit} (bound {m.bound:.0%})")
    if any("per_layer" in e for e in ledger["workloads"].values()):
        print("\n== per-layer table (traced runs; blank = layer idle on that workload)")
        print(f"  {'metric':<46}" + "".join(f"{n:>18}" for n in names))
        for m in spec.PER_LAYER:
            vals = [
                ledger["workloads"][n]["per_layer"]["metrics"][m.name]["value"]
                for n in names
            ]
            cells = "".join(f"{v:>18.4f}" if v else f"{'':>18}" for v in vals)
            print(f"  {m.name:<46}{cells}  {m.unit}")


def cmd_set(args: argparse.Namespace) -> int:
    import procs

    ledger = run_set(args.seed, args.seconds, bool(args.trace), args.quick)
    _print_set(ledger)
    procs.OUT.mkdir(exist_ok=True)
    path = procs.OUT / f"ledger_seed{args.seed}.json"
    path.write_text(json.dumps(ledger, indent=1) + "\n")
    print(json.dumps({
        "bench": "bench_e2e", "host": ledger["host"], "smoke": args.quick,
        "ledger": str(path.relative_to(procs.REPO)),
        "ops_attempted": ledger["ops_attempted"],
        "ops_failed": ledger["ops_failed"], "correct": ledger["correct"],
        "claim": None,
    }))
    return 0 if ledger["correct"] else 1


def cmd_repeat(args: argparse.Namespace) -> int:
    """N full untraced sets back to back: min / median / max per (metric,
    workload) and their spread against the metric's bound."""
    import procs

    sets = [run_set(args.seed, args.seconds, False, args.quick, args.workload)
            for _ in range(args.repeat)]
    rows = []
    worst_ok = True
    print(f"\n== repeatability over {args.repeat} sets, seed {args.seed}")
    print(f"  {'workload':<18}{'metric':<18}{'min':>12}{'median':>12}"
          f"{'max':>12}{'spread':>9}{'bound':>8}")
    for name in sets[0]["workloads"]:
        for m in spec.END_TO_END:
            vals = [
                s["workloads"][name]["end_to_end"]["metrics"][m.name]["value"]
                for s in sets
            ]
            mid = median(vals)
            rel = (max(vals) - min(vals)) / mid if mid else 0.0
            ok = rel <= m.bound
            worst_ok &= ok or m.name == "setup_s"
            rows.append({
                "workload": name, "metric": m.name, "unit": m.unit,
                "values": vals, "min": min(vals), "median": mid,
                "max": max(vals), "spread": rel, "bound": m.bound,
                "within_bound": ok,
            })
            print(f"  {name:<18}{m.name:<18}{min(vals):>12.4f}{mid:>12.4f}"
                  f"{max(vals):>12.4f}{rel:>8.1%}{m.bound:>8.0%}"
                  + ("" if ok else "  <-- exceeds bound"))
    report = {
        "bench": "bench_e2e", "sets": args.repeat, "seconds": args.seconds,
        "smoke": args.quick, "host": sets[0]["host"], "rows": rows,
        "ops_failed": sum(s["ops_failed"] for s in sets),
        "all_within_bound": worst_ok, "claim": None,
    }
    procs.OUT.mkdir(exist_ok=True)
    (procs.OUT / "repeatability.json").write_text(json.dumps(report, indent=1) + "\n")
    correct = all(s["correct"] for s in sets)
    print(json.dumps({k: report[k] for k in
                      ("bench", "sets", "ops_failed", "all_within_bound", "claim")}))
    return 0 if correct else 1


# -- selfcheck ---------------------------------------------------------------------------


def cmd_selfcheck() -> int:
    import numpy as np

    import checks
    import inputs
    from timing import BoundViolation, CheckFailure

    problems: list[str] = []

    def need(cond: bool, what: str) -> None:
        if not cond:
            problems.append(what)

    names = ([w.name for w in spec.WORKLOADS] + [m.name for m in spec.END_TO_END]
             + [m.name for m in spec.PER_LAYER])
    for n in names:
        need(bool(NAME_RE.match(n)), f"bad name {n!r}")
    need(len(set(names)) == len(names), "a name is used twice")
    need(2 <= len(spec.WORKLOADS) <= 8, "workload count outside 2..8")
    need(1 <= len(spec.END_TO_END) <= 16, "end-to-end count outside 1..16")
    need(1 <= len(spec.PER_LAYER) <= 128, "per-layer count outside 1..128")
    need(any(m.name == "setup_s" and m.unit == "s" and m.better == "lower"
             for m in spec.END_TO_END), "no setup_s metric")
    need(all(0 < m.bound <= 0.25 for m in spec.END_TO_END), "a bound outside (0, 0.25]")
    e2e = {m.name for m in spec.END_TO_END}
    wl = {w.name for w in spec.WORKLOADS}
    for m in spec.PER_LAYER:
        need(bool(m.moves) and set(m.moves) <= e2e,
             f"{m.name}: target end-to-end metric missing or unknown")
        need(bool(m.on) and set(m.on) <= wl and set(m.measured_on) <= wl
             and bool(m.measured_on), f"{m.name}: target workload missing or unknown")
    manifest_path = HERE.parent.parent / "BENCHMARK.json"
    need(manifest_path.is_file()
         and json.loads(manifest_path.read_text()) == spec.manifest(),
         "BENCHMARK.json is not the rendering of spec.manifest()")

    for w in wl:
        a, b, c = (inputs.schedule_hash(w, s) for s in (7, 7, 8))
        need(a == b, f"{w}: same seed, different schedule hash")
        need(a != c, f"{w}: different seed, same schedule hash")

    payload = bytes(range(256)) * 4
    flipped = bytearray(payload)
    flipped[513] ^= 0x10
    field = np.linspace(0.0, 1.0, 4096, dtype=np.float32).reshape(64, 64)
    nudged = field.copy()
    nudged[17, 23] += np.float32(0.5)
    for what, fn, exc in (
        ("a payload with one flipped byte",
         lambda: checks.same_bytes(bytes(flipped), payload, "selfcheck"), CheckFailure),
        ("a read with one perturbed value (bit-equality)",
         lambda: checks.same_array(nudged, field, "selfcheck"), CheckFailure),
        ("a read with one perturbed value (error bound)",
         lambda: checks.within_bound(field, nudged, 1e-3, "selfcheck"), BoundViolation),
    ):
        try:
            fn()
        except exc:
            continue
        problems.append(f"the checker accepted {what}")
    checks.same_bytes(payload, payload, "selfcheck")
    checks.same_array(field, field.copy(), "selfcheck")
    checks.within_bound(field, field, 1e-3, "selfcheck")

    for p in problems:
        print(f"selfcheck: {p}")
    print(f"selfcheck: {len(spec.WORKLOADS)} workloads, {len(spec.END_TO_END)} "
          f"end-to-end and {len(spec.PER_LAYER)} per-layer metrics; "
          + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def cmd_list() -> int:
    for w in spec.WORKLOADS:
        print(f"{w.name:<18} {w.why}")
    print()
    for m in spec.END_TO_END:
        print(f"{m.name:<18} {m.unit:<6} {m.better:<7} bound {m.bound:.0%}  {m.means}")
    print()
    for m in spec.PER_LAYER:
        print(f"{m.name:<46} {m.unit:<6} measured on {','.join(m.measured_on)}; "
              f"moves {','.join(m.moves)} on {','.join(m.on)}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run one workload in this process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"measuring time per run (default {spec.RUN_SECONDS})")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    choices=(0, 1), help="report per-layer metrics (traced run)")
    ap.add_argument("--quick", action="store_true",
                    help='K=2 smoke run, marked "smoke": true')
    ap.add_argument("--repeat", type=int, default=0, metavar="N",
                    help="run N full sets and print the repeatability table")
    ap.add_argument("--list", action="store_true")
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = 3.0 if args.quick else float(spec.RUN_SECONDS)

    if args.list:
        return cmd_list()
    if args.selfcheck:
        return cmd_selfcheck()

    import procs

    # SIGTERM unwinds like Ctrl-C, so every ``finally`` stops its servers;
    # whatever those leave behind is adopted and waited for before exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    procs.adopt_orphans()
    try:
        if args.repeat:
            return cmd_repeat(args)
        if args.workload:
            return run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.quick)
        return cmd_set(args)
    finally:
        procs.reap_descendants()


if __name__ == "__main__":
    sys.exit(main())
