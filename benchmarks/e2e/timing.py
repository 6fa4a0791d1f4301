"""The timing rule, the failure ledger and the span recorder.

**Timing rule.**  A timed unit is one *request class* (same input, same
op) repeated K times.  Repeats are interleaved rep-major across classes
(pass 1 runs every class once, then pass 2, ...), so a neighbour's stall
on this shared box lands on all classes alike instead of on one.  A class
time is the lower quartile of its K calibrated samples (noise here only
ever adds time, and over ten runs the lower quartile repeated better than
the median for eight request groups of ten); a throughput is Σ bytes /
Σ class times; a latency is the median over the requests of one pass,
and again the lower quartile of that over the passes.  The stores' warm
slice is the one exception (:func:`quiet_latency`).

**Calibration.**  The 2-core box this was sized on switches, on a scale
of seconds to minutes, between a fast state and one 30-40 % slower for
every process on it (the same call: 20 ms, then 28 ms for a whole run).
Medians within a run cannot remove that; run to run the raw medians had
an interquartile spread of 10-20 %.  So a small fixed NumPy kernel is
timed beside the samples (at most every 50 ms, outside every timed
region, never while client threads are busy) and each sample is scaled
by ``NOMINAL_S / kernel time``: the
reported times are what the run would have measured on a host where the
kernel takes exactly ``NOMINAL_S``.  That kernel tracks the codec at
r = 0.94 in process and 0.81 across processes, and brings the spread to
a few percent.  Span times in the trace files stay raw wall clock.
"""

from __future__ import annotations

import bisect
import json
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.errors import ReproError

clock = time.perf_counter


class Calibrator:
    """Times a fixed reference kernel beside the samples (module docstring)."""

    #: what the kernel takes on the 2-core box in its fast state
    NOMINAL_S = 1.25e-3
    MIN_GAP_S = 0.05

    def __init__(self) -> None:
        self._ref = np.random.default_rng(0).standard_normal(1 << 17).astype(np.float32)
        self._keys = (np.abs(self._ref) * 40).astype(np.int64)
        self._lock = threading.Lock()
        self._when: list[float] = []
        self._took: list[float] = []
        self.raw: list[tuple[str, float, float, float]] = []

    def tick(self) -> None:
        t0 = clock()
        np.cumsum(self._ref)
        np.sort(self._ref)
        np.bincount(self._keys)
        t1 = clock()
        with self._lock:
            self._when.append(t1)
            self._took.append(t1 - t0)

    def maybe_tick(self) -> None:
        if not self._when or clock() - self._when[-1] > self.MIN_GAP_S:
            self.tick()

    def factor(self, at: float | None = None) -> float:
        """``NOMINAL_S`` over the median of the three ticks up to ``at``."""
        with self._lock:
            end = len(self._when) if at is None else bisect.bisect_right(self._when, at)
            recent = self._took[max(0, end - 3):max(end, 1)]
        return self.NOMINAL_S / statistics.median(recent) if recent else 1.0

    def norm(self, seconds: float, at: float | None = None, label: str = "",
             factor: float | None = None) -> float:
        """Calibrated seconds; the raw sample is kept for :meth:`dump`."""
        if factor is None:
            factor = self.factor(at)
        self.raw.append((label, clock() if at is None else at, seconds, factor))
        return seconds * factor

    def dump(self, path: Path) -> None:
        """Raw samples and ticks, for whoever doubts the calibration."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            ticks = [[round(w, 6), t] for w, t in zip(self._when, self._took)]
        path.write_text(json.dumps({
            "nominal_s": self.NOMINAL_S, "ticks": ticks,
            "samples": [[lab, round(w, 6), raw, f] for lab, w, raw, f in self.raw],
        }) + "\n")

    def window_factor(self, start: float, end: float, margin_s: float = 0.25) -> float:
        """``NOMINAL_S`` over the median tick taken around [start, end].

        For phases whose timed work runs on other threads: the caller
        ticks right before and right after (the box is otherwise idle
        then, so the ticks measure the box, not the contention) and
        scales the whole phase by this one factor.
        """
        with self._lock:
            lo = bisect.bisect_left(self._when, start - margin_s)
            hi = bisect.bisect_right(self._when, end + margin_s)
            around = self._took[lo:hi]
        return self.NOMINAL_S / statistics.median(around) if around else self.factor(end)

    def summary(self) -> dict[str, float]:
        with self._lock:
            took = list(self._took)
        q1, q2, q3 = quartiles(took)
        return {"ticks": len(took), "nominal_ms": self.NOMINAL_S * 1e3,
                "q1_ms": q1 * 1e3, "median_ms": q2 * 1e3, "q3_ms": q3 * 1e3}


CAL = Calibrator()

class CheckFailure(Exception):
    """An operation returned, but its output is wrong."""


class BoundViolation(CheckFailure):
    """A decoded value lies outside the requested error bound."""


#: What one operation may raise and still be *counted* as failed rather
#: than abort the run: the library's typed errors, wire/OS failures and
#: the checker's verdicts.  Anything else is a harness bug and raises.
OP_ERRORS: tuple[type[BaseException], ...] = (
    ReproError, OSError, TimeoutError, CheckFailure,
)


@dataclass
class Ledger:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    bound_violations: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self.bound_violations += isinstance(exc, BoundViolation)
        if len(self.reasons) < 8:
            self.reasons.append(f"{what}: {type(exc).__name__}: {exc}")

    def attempt(self, what: str, fn: Callable[[], Any]) -> Any:
        """Run one untimed operation under the ledger (None on failure)."""
        self.attempted += 1
        try:
            return fn()
        except OP_ERRORS as exc:
            self.fail(what, exc)
            return None


@dataclass
class ReqClass:
    """One request class: a timed call, its size, and its output check."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]  # raises CheckFailure
    nbytes: int = 0
    before: Callable[[], None] | None = None  # untimed per-sample set-up


def median(xs: Sequence[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def class_time(xs: Sequence[float]) -> float:
    """One request class's time: the lower quartile of its samples."""
    return quartiles(xs)[0]


def quartiles(xs: Sequence[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        v = xs[0] if xs else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def tail(xs: Sequence[float]) -> tuple[float, float]:
    """(percentile, value) at the highest percentile that still has ten
    samples beyond it; (0, 0) when there are too few samples for one
    above the median."""
    n = len(xs)
    if n < 21:
        return 0.0, 0.0
    return 100.0 * (n - 10) / n, sorted(xs)[n - 11]


def latency_p50(passes: Sequence[Sequence[float]]) -> float:
    """The median request latency of each pass; lower quartile over passes."""
    return class_time([median(p) for p in passes if p])


def quiet_latency(classes: Sequence["ReqClass"],
                  samples: dict[str, list[float]]) -> float:
    """The median over request classes of each class's quietest sample.

    For the stores' warm slice only: a 0.2 ms memory-bound call answers a
    neighbour's load with an exponent of about 1.8 against the calibration
    kernel, so every quantile inside the bulk of its samples follows the
    box (lower quartile: 12-21 % spread over ten runs, medians 26 % apart
    between sets of ten).  The floor of K >= 20 calibrated samples does
    so far less (5-19 %, medians 1-3 % apart).
    """
    return median([min(samples[c.name]) for c in classes if samples.get(c.name)])


def by_pass(classes: Sequence["ReqClass"],
            samples: dict[str, list[float]]) -> list[list[float]]:
    """Regroup per-class samples (one per pass each) into passes."""
    columns = [samples[c.name] for c in classes if samples.get(c.name)]
    return [list(row) for row in zip(*columns)]


def rate_mb_s(classes: Sequence[ReqClass], samples: dict[str, list[float]]) -> float:
    """Σ bytes / Σ class times over the classes that have samples."""
    nbytes = sum(c.nbytes for c in classes if samples.get(c.name))
    secs = sum(class_time(samples[c.name]) for c in classes if samples.get(c.name))
    return nbytes / 1e6 / secs if secs else 0.0


def interleave(*groups: Sequence[ReqClass]) -> list[ReqClass]:
    """a1, b1, c1, a2, b2, c2, ...: paired classes run back to back."""
    return [c for together in zip(*groups) for c in together]


def passes(budget_s: float, min_reps: int = 2,
           max_reps: int | None = None) -> Iterator[int]:
    """Yield pass numbers until the budget is spent.

    Never fewer than ``min_reps`` nor more than ``max_reps`` passes, and
    no pass that would overrun the budget by more than half the length
    of the one before it.
    """
    start = clock()
    rep = 0
    last_s = 0.0
    while max_reps is None or rep < max_reps:
        if rep >= min_reps and clock() - start + 0.5 * last_s > budget_s:
            return
        t0 = clock()
        yield rep
        last_s = clock() - t0
        rep += 1


class Tracer:
    """In-memory spans: (name, request id, parent, start, end).

    The harness records one span around each call into a layer; spans of
    one request share an id down the call ladder.  Nothing is written
    until :meth:`dump`, after the run.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[str, str, str | None, float, float]] = []

    def add(self, name: str, req: str, parent: str | None,
            start: float, end: float) -> None:
        if self.enabled:
            self.spans.append((name, req, parent, start, end))

    def dump(self, path: Path, extra: dict[str, Any]) -> None:
        if not self.enabled:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            **extra,
            "spans": [
                {"name": n, "request": r, "parent": p,
                 "start_s": round(a, 6), "end_s": round(b, 6)}
                for n, r, p, a, b in self.spans
            ],
        }) + "\n")


def run_classes(
    classes: Sequence[ReqClass],
    budget_s: float,
    ledger: Ledger,
    *,
    min_reps: int = 2,
    max_reps: int | None = None,
    tracer: Tracer | None = None,
    span: str = "",
    parent: str | None = None,
    between: Callable[[], None] | None = None,
) -> dict[str, list[float]]:
    """Time every class rep-major until the budget is spent.

    Pass count as :func:`passes` decides.  Checks run outside the timed
    region; a failed call or check is counted and yields no sample.
    Samples are calibrated seconds (module docstring).  ``between`` runs
    after every pass, inside the budget (another phase's burst, so that
    phase is sampled all along this one).
    """
    samples: dict[str, list[float]] = {c.name: [] for c in classes}
    for rep in passes(budget_s, min_reps, max_reps):
        for c in classes:
            if c.before is not None:
                c.before()
            CAL.maybe_tick()
            ledger.attempted += 1
            t0 = clock()
            try:
                out = c.call()
                t1 = clock()
                c.check(out)
            except OP_ERRORS as exc:
                ledger.fail(c.name, exc)
                continue
            samples[c.name].append(CAL.norm(t1 - t0, t1, c.name))
            if tracer is not None:
                tracer.add(span or c.name, f"{c.name}#{rep}", parent, t0, t1)
        if between is not None:
            between()
    return samples


def run_alternating(
    classes: Sequence[ReqClass],
    budget_s: float,
    ledger: Ledger,
    tracer: Tracer,
    span: str,
    *,
    quick: bool = False,
    toggle: Callable[[bool], None] | None = None,
) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """Alternate plain and span-recording passes over the same classes.

    Same requests, same box state, so the difference between the two
    sample sets is what recording costs.  ``toggle(recording)`` lets the
    caller switch its own instrumentation on for the recording passes.
    Returns (plain samples, recorded samples).
    """
    plain: dict[str, list[float]] = {c.name: [] for c in classes}
    recorded: dict[str, list[float]] = {c.name: [] for c in classes}
    for n in passes(budget_s, 2, 2 if quick else None):
        recording = n % 2 == 1
        if toggle is not None:
            toggle(recording)
        got = run_classes(
            classes, 0.0, ledger, min_reps=1, max_reps=1,
            tracer=tracer if recording else None, span=span,
        )
        for name, xs in got.items():
            (recorded if recording else plain)[name] += xs
    return plain, recorded


def overhead_pct(classes: Sequence[ReqClass], plain: dict[str, list[float]],
                 recorded: dict[str, list[float]]) -> float:
    a = sum(class_time(plain[c.name]) for c in classes)
    b = sum(class_time(recorded[c.name]) for c in classes)
    return 100.0 * (b / a - 1.0) if a else 0.0
