"""The ``svc_small_jobs`` fields and codecs, for tests that need them.

``benchmarks/e2e/inputs.py`` draws the workload's 64 fields (16 shapes,
6-16 KB each) and the codec of each job from a seed; the tests take the
ledger's default seed, so they cover the streams the workload sends.
"""

import sys
from functools import lru_cache
from pathlib import Path

from repro.codec.registry import get_codec
from repro.kernels import forced
from repro.streams import decompress_auto

SEED = 1  # the ledger's default seed
EB, MODE = 1e-3, "vr_rel"
_E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


@lru_cache(maxsize=1)
def small_jobs() -> tuple:
    """``((codec, field, payload bytes), ...)`` for the 64 jobs, in plan
    order; payloads are compressed with the fast kernels (both modes
    write the same bytes)."""
    if str(_E2E) not in sys.path:
        sys.path.insert(0, str(_E2E))
    import inputs
    import spec

    plan = inputs.plan_for(spec.SMALL, SEED)
    jobs = []
    with forced("fast"):
        for codec, field in zip(plan["codecs"], inputs.small_fields(plan)):
            jobs.append((codec, field, get_codec(codec).compress(field, EB, MODE).payload))
    return tuple(jobs)


def captured_calls(kernel: str, codecs: tuple[str, ...]) -> list[tuple]:
    """The argument tuples of every ``kernel`` call the fast decompress of
    the small jobs of ``codecs`` makes, in job order."""
    from repro.kernels import dispatch

    entry = dispatch._REGISTRY[kernel]
    fast = entry.fast
    calls: list[tuple] = []

    def spy(*args):
        calls.append(args)
        return fast(*args)

    entry._fast = spy
    try:
        with forced("fast"):
            for codec, _, payload in small_jobs():
                if codec in codecs:
                    decompress_auto(payload)
    finally:
        entry._fast = fast
    return calls
