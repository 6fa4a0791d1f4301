"""Batch-compression service: jobs, scheduling, workers, metrics, serving.

The serving layer over the codec registry — a long-lived process that
accepts many compression jobs, schedules them through a bounded queue
(explicit backpressure), executes them on a process worker pool (CEAZ /
cuSZ-style coarse-grained batch parallelism over independent fields),
retries transient faults with backoff, and exposes live metrics.

Quickstart (batch)::

    from repro.service import make_job, run_batch

    jobs = [make_job("sz14", field_a), make_job("wavesz", field_b, eb=1e-4)]
    results, stats = run_batch(jobs, workers=4)
    payloads = [r.output for r in results]
    print(stats.to_dict()["latency"]["overall"])

Quickstart (server)::

    # shell 1                          # shell 2
    $ wavesz serve --port 8123         >>> from repro.service import ServiceClient
                                       >>> c = ServiceClient(port=8123)
                                       >>> payload, info = c.compress(field, "sz14")

Every result is bit-identical to the single-threaded library call — the
workers run the exact same codec code, and the golden-stream tests pin
the wire format.
"""

from .jobs import CompressionJob, JobHandle, JobResult, JobState, make_job
from .metrics import LatencySummary, MetricsRegistry, ServiceStats
from .queue import BoundedJobQueue
from .resilience import CircuitBreaker, RetryPolicy
from .scheduler import BatchScheduler, run_batch
from .server import CompressionServer, ServiceClient, serve
from .shm import FieldRef, PickleTransport, ShmArena, ShmTransport
from .workers import WorkerPool

__all__ = [
    "FieldRef",
    "ShmArena",
    "ShmTransport",
    "PickleTransport",
    "RetryPolicy",
    "CircuitBreaker",
    "CompressionJob",
    "JobHandle",
    "JobResult",
    "JobState",
    "make_job",
    "LatencySummary",
    "MetricsRegistry",
    "ServiceStats",
    "BoundedJobQueue",
    "BatchScheduler",
    "run_batch",
    "CompressionServer",
    "ServiceClient",
    "serve",
    "WorkerPool",
]
