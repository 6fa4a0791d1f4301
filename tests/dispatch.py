"""What a request costs the event loop, counted, for tests and benches.

:func:`loop_counts` patches one event loop (and
``multiprocessing.connection``) for the length of a ``with`` block and
counts what the process pool's reply path may not cost: loop passes,
callbacks handed in from another thread, writes to the loop's self-pipe
(its cross-thread wake-up), and the selectors
``multiprocessing.connection.wait`` builds (``Connection.poll`` builds
one per call).  :func:`serving` runs a server on a loop of its own
thread, so a blocking client can talk to it from the caller's, and
:func:`tiny_payload` is the request body whose cost is all dispatch.
"""

import asyncio
import multiprocessing.connection as mp_connection
import threading
from contextlib import contextmanager

import numpy as np

from repro.codec.registry import get_codec


def tiny_payload() -> bytes:
    """An 8 x 8 ``wavesz-dp`` payload: a ``decompress`` of it is all
    fixed cost."""
    field = np.random.default_rng(45).normal(size=(8, 8)).astype(np.float32)
    return get_codec("wavesz-dp").compress(field, 1e-3, "vr_rel").payload


@contextmanager
def loop_counts(loop: asyncio.AbstractEventLoop):
    """Yield a dict of counts, updated while the block runs: ``passes``,
    ``threadsafe`` (``call_soon_threadsafe`` calls), ``self_pipe``
    (self-pipe writes) and ``selectors``."""
    counts = dict.fromkeys(("passes", "threadsafe", "self_pipe", "selectors"), 0)

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call

    selector = mp_connection._WaitSelector

    class CountedSelector(selector):
        def __init__(self, *args, **kwargs):
            counts["selectors"] += 1
            super().__init__(*args, **kwargs)

    patched = {
        "_run_once": "passes",
        "call_soon_threadsafe": "threadsafe",
        "_write_to_self": "self_pipe",
    }
    for attr, key in patched.items():
        setattr(loop, attr, counted(key, getattr(loop, attr)))
    mp_connection._WaitSelector = CountedSelector
    try:
        yield counts
    finally:
        mp_connection._WaitSelector = selector
        for attr in patched:
            delattr(loop, attr)  # back to the class's method


@contextmanager
def serving(server):
    """``server`` started on an event loop in a thread of its own; yields
    that loop, and stops the server (and the loop) on exit."""
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        assert started.wait(30), "the server did not start"
        yield loop
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(30)
        assert not thread.is_alive()
        loop.close()
