"""What a small request costs ``wavesz serve``'s event loop, counted.

A tiny ``decompress`` is all fixed cost, and most of it was hops: a
dispatcher task between the request and the pool, a
``concurrent.futures`` future chained into the loop through its
self-pipe, a selector built per reply.  The counts pinned here hold on
any host: a worker's reply is settled by the loop's own reader (no
self-pipe write, no selector), and a job that finds a worker slot free
runs in the request's own task, so a request takes a handful of loop
passes.
"""

import numpy as np

from repro.service import CompressionServer, ServiceClient
from tests.dispatch import loop_counts, serving, tiny_payload

#: event-loop passes one tiny decompress may take (7.1 with a dispatcher
#: task and a chained future in the way; 4 without)
PASSES_PER_REQUEST = 5
REQUESTS = 60


def test_a_tiny_decompress_takes_few_loop_passes_and_no_wake_up():
    payload = tiny_payload()
    srv = CompressionServer(port=0, workers=2, pool_kind="process", batch_bytes=32768)
    with serving(srv) as loop, ServiceClient(port=srv.port) as client:
        expected = client.decompress(payload)
        for _ in range(10):  # both workers forked and warm
            client.decompress(payload)
        with loop_counts(loop) as counts:
            for _ in range(REQUESTS):
                np.testing.assert_array_equal(client.decompress(payload), expected)
        stats = client.stats()
    assert counts["passes"] <= PASSES_PER_REQUEST * REQUESTS, counts
    assert counts["self_pipe"] == counts["threadsafe"] == 0, counts
    assert counts["selectors"] == 0, counts
    # every request ran once, and none waited in the queue for a batch
    assert stats["jobs"]["decompress"]["completed"] == REQUESTS + 11
    assert stats["events"].get("batch.dispatches", 0) == 0
