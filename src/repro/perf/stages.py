"""Per-stage timing hooks for the codec pipeline.

The pipeline runner (:class:`repro.codec.pipeline.StagePipeline`) checks
for an active :class:`StageRecorder` around every stage call; when one is
installed it attributes wall-clock time to the stage's name, so a bench
can split "compress took 54 ms" into PQD / Huffman / gzip shares instead
of guessing from whole-pipeline numbers.

The active recorder is a :class:`contextvars.ContextVar`, so concurrent
measurements (the service's thread pools) never write into each
other's profiles.  With no recorder installed the runner's overhead is
a single context-variable read per stage.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

__all__ = ["StageRecorder", "recording_stages", "active_recorder"]

_active: ContextVar["StageRecorder | None"] = ContextVar(
    "repro_stage_recorder", default=None
)


class StageRecorder:
    """Accumulates seconds per stage name, in first-seen order."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)

    def snapshot(self) -> dict[str, float]:
        """A copy of the accumulated per-stage seconds."""
        return dict(self.seconds)


def active_recorder() -> StageRecorder | None:
    """The recorder the pipeline runner should report into, if any."""
    return _active.get()


@contextmanager
def recording_stages() -> Iterator[StageRecorder]:
    """Install a fresh recorder for the duration of the ``with`` block::

        with recording_stages() as rec:
            compressor.compress(field, eb, mode)
        print(rec.snapshot())  # {"bound": ..., "pqd": ..., "codes": ...}
    """
    recorder = StageRecorder()
    token = _active.set(recorder)
    try:
        yield recorder
    finally:
        _active.reset(token)
