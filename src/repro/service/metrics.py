"""Live service metrics: per-codec counters, latency histograms, snapshots.

Everything here is plain in-process bookkeeping — cheap enough to update
on every job event — exposed through an immutable :class:`ServiceStats`
snapshot so observers (the ``stats`` server op, the CLI, tests, benches)
never see a half-updated view.  A :class:`threading.Lock` guards updates
because the TCP server may snapshot from a different thread than the
scheduler loop mutating the counters.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["LatencySummary", "ServiceStats", "MetricsRegistry"]

#: Per-codec raw latency samples kept for percentile estimation.  A
#: bounded reservoir: old samples age out, which is what a *live* p99
#: should do anyway.
_RESERVOIR = 4096

_COUNTER_KEYS = (
    "submitted", "completed", "failed", "retried", "rejected", "expired",
)


@dataclass(frozen=True)
class LatencySummary:
    """Percentiles over the retained latency samples, in seconds.

    An empty sample set yields ``count == 0`` with every statistic
    ``None`` — not zeros, which read as "instant", and not an exception,
    so a series (e.g. a store cache gauge set) can register with the
    registry before its first traffic and still snapshot cleanly.
    """

    count: int
    mean_s: float | None
    p50_s: float | None
    p90_s: float | None
    p99_s: float | None
    max_s: float | None

    @staticmethod
    def of(samples: list[float]) -> "LatencySummary":
        if not samples:
            return LatencySummary(0, None, None, None, None, None)
        s = sorted(samples)

        def pct(p: float) -> float:
            return s[min(len(s) - 1, int(p * len(s)))]

        return LatencySummary(
            count=len(s),
            mean_s=sum(s) / len(s),
            p50_s=pct(0.50),
            p90_s=pct(0.90),
            p99_s=pct(0.99),
            max_s=s[-1],
        )

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean_s": self.mean_s,
            "p50_s": self.p50_s,
            "p90_s": self.p90_s,
            "p99_s": self.p99_s,
            "max_s": self.max_s,
        }


@dataclass(frozen=True)
class ServiceStats:
    """One consistent snapshot of the whole service.

    ``jobs`` maps codec name → counter dict (submitted / completed /
    failed / retried / rejected / expired); ``latency`` maps codec name →
    :class:`LatencySummary` plus an ``"overall"`` entry.  ``ratio`` is the
    aggregate compression ratio over all completed compress jobs.
    """

    uptime_s: float
    jobs: Mapping[str, Mapping[str, int]]
    totals: Mapping[str, int]
    queue_depth: int
    queue_capacity: int
    queue_high_water: int
    in_flight: int
    workers: int
    latency: Mapping[str, LatencySummary]
    throughput_jobs_per_s: float
    bytes_in: int
    bytes_out: int
    ratio: float = field(default=0.0)
    gauges: Mapping[str, float] = field(default_factory=dict)
    events: Mapping[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serializable form (the wire format of the ``stats`` op)."""
        return {
            "uptime_s": self.uptime_s,
            "jobs": {k: dict(v) for k, v in self.jobs.items()},
            "totals": dict(self.totals),
            "queue": {
                "depth": self.queue_depth,
                "capacity": self.queue_capacity,
                "high_water": self.queue_high_water,
            },
            "in_flight": self.in_flight,
            "workers": self.workers,
            "latency": {k: v.to_dict() for k, v in self.latency.items()},
            "throughput_jobs_per_s": self.throughput_jobs_per_s,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "ratio": self.ratio,
            "gauges": dict(self.gauges),
            "events": dict(self.events),
        }


class MetricsRegistry:
    """Mutable counters + histograms behind a lock; snapshot() freezes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._counters: dict[str, dict[str, int]] = {}
        self._latency: dict[str, deque[float]] = {}
        self._bytes_in = 0
        self._bytes_out = 0
        self._gauges: dict[str, float] = {}
        self._events: dict[str, int] = {}
        self._first_completion: float | None = None
        self._last_completion: float | None = None

    def _codec(self, codec: str) -> dict[str, int]:
        counters = self._counters.get(codec)
        if counters is None:  # built once per codec, not on every bump
            counters = self._counters[codec] = dict.fromkeys(_COUNTER_KEYS, 0)
        return counters

    def count(self, codec: str, event: str, n: int = 1) -> None:
        """Bump one per-codec counter (event ∈ ``_COUNTER_KEYS``)."""
        with self._lock:
            self._codec(codec)[event] += n

    def incr(self, name: str, n: int = 1) -> None:
        """Bump a free-form monotonic event counter.

        The resilience plane lives here: ``client.retries``,
        ``server.idem_hits``, ``watchdog.kills``, ``store.rollbacks``,
        ``store.fsck_repairs`` — anything that is a count of things that
        happened rather than a per-codec job transition.  The transport
        plane adds ``batch.dispatches`` / ``batch.jobs`` /
        ``batch.fallbacks`` (micro-batching) and ``shm.leaks_reclaimed``
        (leases still held when the arena was closed; ``close()``
        unlinks their segments).  Appears in every snapshot under
        ``events`` from the first bump.
        """
        with self._lock:
            self._events[name] = self._events.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        """Set a point-in-time gauge (cache residency, queue depth, ...).

        Gauges are last-write-wins and appear in every snapshot from the
        moment they are first set — a producer (e.g. the store's tile
        cache) registers its series at construction by setting them to 0.
        The transport plane publishes ``shm.resident_bytes`` (bytes the
        arena currently maps) and ``batch.occupancy`` (mean jobs per
        coalesced dispatch, a rolling view of how full batches run).
        """
        with self._lock:
            self._gauges[name] = float(value)

    def set_gauges(self, values: Mapping[str, float]) -> None:
        """Set several gauges under one lock acquisition."""
        with self._lock:
            for name, value in values.items():
                self._gauges[name] = float(value)

    def observe_completion(
        self, codec: str, *, latency_s: float,
        bytes_in: int = 0, bytes_out: int = 0,
    ) -> None:
        """Record a successful job: latency sample + throughput window."""
        now = time.monotonic()
        with self._lock:
            self._codec(codec)["completed"] += 1
            samples = self._latency.get(codec)
            if samples is None:
                samples = self._latency[codec] = deque(maxlen=_RESERVOIR)
            samples.append(latency_s)
            self._bytes_in += bytes_in
            self._bytes_out += bytes_out
            if self._first_completion is None:
                self._first_completion = now
            self._last_completion = now

    def snapshot(
        self, *, queue_depth: int = 0, queue_capacity: int = 0,
        queue_high_water: int = 0, in_flight: int = 0, workers: int = 0,
    ) -> ServiceStats:
        """Freeze a consistent :class:`ServiceStats` view."""
        with self._lock:
            jobs = {k: dict(v) for k, v in self._counters.items()}
            latency = {
                k: LatencySummary.of(list(v)) for k, v in self._latency.items()
            }
            all_samples = [x for v in self._latency.values() for x in v]
            latency["overall"] = LatencySummary.of(all_samples)
            totals = {k: 0 for k in _COUNTER_KEYS}
            for v in jobs.values():
                for k in _COUNTER_KEYS:
                    totals[k] += v[k]
            span = (
                (self._last_completion or 0.0)
                - (self._first_completion or 0.0)
            )
            completed = totals["completed"]
            if completed > 1 and span > 0:
                throughput = completed / span
            elif completed:
                throughput = float(completed)
            else:
                throughput = 0.0
            return ServiceStats(
                uptime_s=time.monotonic() - self._started,
                jobs=jobs,
                totals=totals,
                queue_depth=queue_depth,
                queue_capacity=queue_capacity,
                queue_high_water=queue_high_water,
                in_flight=in_flight,
                workers=workers,
                latency=latency,
                throughput_jobs_per_s=throughput,
                bytes_in=self._bytes_in,
                bytes_out=self._bytes_out,
                ratio=(
                    self._bytes_in / self._bytes_out if self._bytes_out else 0.0
                ),
                gauges=dict(self._gauges),
                events=dict(self._events),
            )
