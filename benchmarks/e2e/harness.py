"""What every workload shares: the run context and the repeated set-up."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Iterator, Sequence

import spec
from timing import CAL, Ledger, Tracer, clock, median, quartiles, tail


@dataclass
class Ctx:
    """One run of one workload."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    quick: bool
    workdir: Path
    ledger: Ledger = field(default_factory=Ledger)
    tracer: Tracer = field(init=False)
    values: dict[str, float] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)
    setup_samples: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.tracer = Tracer(self.trace)

    @property
    def reps(self) -> dict[str, int | None]:
        """``run_classes`` keywords: ``--quick`` pins K to 2."""
        return {"min_reps": 2, "max_reps": 2 if self.quick else None}

    def share(self, fraction: float) -> float:
        """A phase's slice of the measuring time."""
        return fraction * self.seconds

    def put(self, name: str, value: float) -> None:
        self.values[name] = float(value)

    def note_samples(self, label: str, xs: Sequence[float], scale: float = 1e3,
                     unit: str = "ms") -> None:
        """Record count, quartiles and tail of a sample set for the report."""
        q1, q2, q3 = quartiles(xs)
        pct, val = tail(xs)
        self.notes[label] = {
            "n": len(xs), "unit": unit,
            "q1": q1 * scale, "median": q2 * scale, "q3": q3 * scale,
            "tail_pct": pct, "tail": val * scale,
        }


#: How often the stage is set before the run uses it (the contract asks
#: for several set-ups per run and their median).
N_SETUPS = 3


@contextmanager
def staged(ctx: Ctx, make: Callable[[], ContextManager[Any]]) -> Iterator[Any]:
    """Set the stage ``N_SETUPS`` times, timing each; keep the last one."""
    def done(t0: float) -> None:
        took = clock() - t0
        for _ in range(3):
            CAL.tick()
        ctx.setup_samples.append(CAL.norm(took))

    for _ in range(0 if ctx.quick else N_SETUPS - 1):
        t0 = clock()
        with make():
            done(t0)
    t0 = clock()
    with make() as stage:
        done(t0)
        yield stage


def finish_end_to_end(ctx: Ctx, peak_rss_mb: float) -> None:
    ctx.put("peak_rss_mb", peak_rss_mb)
    ctx.put("setup_s", median(ctx.setup_samples))
    ctx.notes["setup_s"] = [round(s, 4) for s in ctx.setup_samples]
    ctx.notes["calibration"] = {k: round(v, 4) for k, v in CAL.summary().items()}


def metrics_for(ctx: Ctx) -> dict[str, dict[str, Any]]:
    """The ``metrics`` object of the result line: every end-to-end metric
    untraced, every per-layer metric traced (0 where this workload's
    traced run does not exercise the layer)."""
    declared = spec.PER_LAYER if ctx.trace else spec.END_TO_END
    unknown = set(ctx.values) - {m.name for m in declared}
    if unknown:
        raise KeyError(f"undeclared metrics reported: {sorted(unknown)}")
    out = {}
    for m in declared:
        if not ctx.trace and m.name not in ctx.values:
            raise KeyError(f"{ctx.workload} did not report {m.name}")
        out[m.name] = {"value": ctx.values.get(m.name, 0.0), "unit": m.unit}
    return out
