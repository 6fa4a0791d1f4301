"""One field contract: what a codec accepts is said once, checked once,
and is what the decoder reads.

A payload header may declare a float32/float64 field of 1-4 dimensions
and 1..``MAX_FIELD_POINTS`` points (``repro.streams.header_dtype`` /
``header_shape``).  ``repro.streams.check_field`` holds every field to
that rule, narrowed to the ``dims`` a codec's stages declare, before any
stage runs — in ``compress``, in the tiled writers and in a service job —
with one message template.  Each refusal test here failed before that
check existed: GhostSZ wrote int32 payloads its own decoder refused, the
selector picked them, SZ-1.0 wrote 5-D payloads, a 0-D field came back
as shape ``(1,)`` and an empty one raised a raw NumPy ``ValueError``.
"""

import asyncio
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.codec.registry import REGISTRY, get_codec
from repro.errors import ConfigError, DTypeError, ShapeError
from repro.parallel import tile_compress
from repro.selector import OnlineSelector
from repro.service import CompressionServer, ServiceClient
from repro.store import ArrayStore
from repro.streams import decompress_auto

NAMES = REGISTRY.all_names()

#: One walk of 960 points per admitted dimensionality (the SZ-1.0
#: bestfit loop is scalar, so fields stay small).
SHAPES = {1: (960,), 2: (24, 40), 3: (6, 8, 20), 4: (2, 4, 6, 20)}

EMPTY = np.zeros((0, 8), dtype=np.float32)


def refusal(name: str) -> str:
    """The one template every contract refusal matches."""
    return rf"^{re.escape(get_codec(name).name)} accepts (\dD/)*\dD float32/float64 fields"


def walk(shape, dtype, seed=0) -> np.ndarray:
    steps = np.random.default_rng(seed).normal(0.0, 1.0, int(np.prod(shape)))
    return np.cumsum(steps).reshape(shape).astype(dtype)


@pytest.mark.parametrize("name", NAMES)
class TestOneRefusal:
    def test_non_float_dtypes(self, name):
        for dtype in ("int32", "float16", "bool", "complex64"):
            with pytest.raises(DTypeError, match=refusal(name) + f".* got {dtype} "):
                get_codec(name).compress(np.ones((8, 8), dtype), 1e-3, "abs")

    def test_zero_d_five_d_and_empty_fields(self, name):
        for field in (np.array(1.5, np.float32), np.ones((2,) * 5, np.float32), EMPTY):
            with pytest.raises(ShapeError, match=refusal(name)):
                get_codec(name).compress(field, 1e-3, "abs")

    def test_every_dimensionality_outside_dims(self, name):
        dims = REGISTRY.entry(name).dims
        assert dims == get_codec(name).dims
        for nd in sorted(set(SHAPES) - set(dims)):
            with pytest.raises(ShapeError, match=refusal(name)):
                get_codec(name).compress(walk(SHAPES[nd], np.float32), 1e-3, "abs")

    def test_empty_field_through_tile_compress(self, name):
        with pytest.raises(ShapeError, match=refusal(name)):
            tile_compress(get_codec(name), EMPTY, 1e-3, n_tiles=2)

    def test_empty_field_through_store_put(self, name, tmp_path):
        store = ArrayStore(tmp_path)
        with pytest.raises(ShapeError, match=refusal(name)):
            store.put("empty", EMPTY, name, 1e-3)
        assert store.names() == ()


@pytest.fixture(scope="module")
def server():
    loop = asyncio.new_event_loop()
    srv = CompressionServer(port=0, workers=1, pool_kind="thread")
    started = threading.Event()

    def runner():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(srv.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(10), "server failed to start"
    yield srv
    asyncio.run_coroutine_threadsafe(srv.stop(), loop).result(10)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(10)


def test_empty_field_through_tcp_compress(server):
    """The frame carries an empty field; the job's contract refuses it,
    and the client re-raises the same type and wording."""
    with ServiceClient(port=server.port) as c:
        for name in NAMES:
            with pytest.raises(ShapeError, match=refusal(name)):
                c.compress(EMPTY, name, 1e-3)
        with pytest.raises(DTypeError, match=refusal("ghostsz")):
            c.compress(np.ones((8, 8), np.int32), "ghostsz", 1e-3)
        assert c.ping()["ok"]


@pytest.mark.parametrize(
    "candidates", [["sz14", "ghostsz", "zfp-like", "wavesz"], list(REGISTRY.names())]
)
def test_selector_has_no_candidate_for_an_int_field(candidates):
    field = walk((32, 40), np.float64).astype(np.int32)
    with pytest.raises(ConfigError, match="no candidate"):
        OnlineSelector(candidates).select(field, 1e-3, "abs")


def _admitted():
    for name in NAMES:
        for nd in REGISTRY.entry(name).dims:
            for dtype in ("float32", "float64"):
                yield name, nd, dtype


@pytest.mark.parametrize("name, nd, dtype", list(_admitted()))
def test_every_admitted_field_decodes(name, nd, dtype):
    """No field the contract admits makes a payload ``decompress_auto``
    refuses, and the bound holds on it."""
    x = walk(SHAPES[nd], dtype, seed=nd)
    cf = get_codec(name).compress(x, 1e-3, "vr_rel")
    out = decompress_auto(cf.payload)
    assert out.shape == x.shape and out.dtype == x.dtype
    err = np.abs(out.astype(np.float64) - x.astype(np.float64)).max()
    assert err <= cf.bound.absolute * (1.0 + 1e-12)


def test_api_compressor_table_states_the_derived_dims_and_bounds():
    """docs/API.md's compressor table says what ``describe()`` derives."""
    api = (Path(__file__).parents[2] / "docs" / "API.md").read_text()
    rows = {
        cls: (dims, bounds)
        for cls, dims, bounds in re.findall(
            r"^\| `(\w+)\(.*?\| .*? \| (.*?) \| (.*?) \|", api, re.M
        )
    }
    for entry in REGISTRY.describe():
        cls = type(get_codec(entry["name"])).__name__
        assert rows[cls] == (
            "/".join(f"{d}D" for d in entry["dims"]),
            ", ".join(entry["modes"]),
        ), cls
