"""The pointwise-relative bound is held on every point, or refused.

Two regressions, one contract.  (1) Every tiled path shares
:func:`repro.parallel.plan_bands`, which used to hand each band the
*log-domain* absolute of a ``pw_rel`` request to apply on raw values, so
``tile_compress``, ``ArrayStore.put``, a gateway put and a tiled service
compress all missed the bound that the same codec holds monolithically.
(2) A codec whose stage list has no log transform used to take ``pw_rel``
as an absolute bound, silently.  Now: ``|out - x| <= eb * |x|`` on every
point, or a typed ``ShapeError`` at ``compress`` before any work.
"""

import numpy as np
import pytest

from repro.codec.registry import REGISTRY, get_codec
from repro.errors import ShapeError
from repro.parallel import tile_compress, tile_decompress
from repro.service import ServiceClient
from repro.shard import LocalShardCluster
from repro.store import ArrayStore

EB = 1e-2


@pytest.fixture(scope="module")
def walk():
    """A positive 24x40 random walk that dips well below 1, where the
    log-domain absolute (~1.4e-2) is far looser than ``EB * |x|``."""
    rng = np.random.default_rng(5)
    x = np.cumsum(rng.normal(0, 0.1, (24, 40)), axis=1)
    return (np.abs(x) + 0.05).astype(np.float32)


def assert_pw_rel_holds(out: np.ndarray, x: np.ndarray) -> None:
    assert out.shape == x.shape and out.dtype == x.dtype
    err = np.abs(out.astype(np.float64) - x.astype(np.float64))
    over = err > EB * np.abs(x.astype(np.float64))
    assert not over.any(), (
        f"{int(over.sum())} of {x.size} points over the bound, "
        f"max relative error {float((err / np.abs(x)).max()):.3g}"
    )


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    roots = [tmp_path_factory.mktemp(f"pw{i}") for i in range(3)]
    with LocalShardCluster(roots, replicas=2) as c:
        yield c


@pytest.mark.parametrize("codec", ["sz14", "wavesz-dp"])
class TestTiledPathsHoldPwRel:
    def test_tile_compress(self, walk, codec):
        tiled = tile_compress(get_codec(codec), walk, EB, "pw_rel", n_tiles=2)
        assert tiled.meta["n_tiles"] == 2
        assert_pw_rel_holds(tile_decompress(None, tiled.payload), walk)

    def test_array_store(self, walk, codec, tmp_path):
        store = ArrayStore(tmp_path)
        assert store.put("w", walk, codec, EB, "pw_rel", n_tiles=2).n_tiles == 2
        assert_pw_rel_holds(store.read("w").data, walk)

    def test_gateway(self, walk, codec, cluster):
        with cluster.gateway() as gw:
            gw.put(f"w.{codec}", walk, codec, EB, "pw_rel", n_tiles=2)
            assert_pw_rel_holds(gw.read(f"w.{codec}").data, walk)

    def test_service_tiles(self, walk, codec, cluster):
        # wavesz-dp fans its bands out across the pool, sz14 tiles inside
        # one worker: both routes take the per-band bound from the plan
        host, port = cluster.addresses[0].rsplit(":", 1)
        with ServiceClient(host, int(port)) as c:
            payload, _ = c.compress(walk, codec, EB, "pw_rel", tiles=2)
        assert_pw_rel_holds(tile_decompress(None, payload), walk)


def _all_codec_names():
    for entry in REGISTRY:
        yield from (entry.name, *sorted(entry.profiles))


class TestHeldOrRefused:
    @pytest.mark.parametrize("name", list(_all_codec_names()))
    def test_pw_rel_holds_or_raises_at_compress(self, walk, name):
        codec = get_codec(name)
        try:
            payload = codec.compress(walk, EB, "pw_rel").payload
        except ShapeError as refusal:
            assert codec.name in str(refusal) and "abs, vr_rel" in str(refusal)
            assert "pw_rel" not in REGISTRY.entry(name).modes
        else:
            assert_pw_rel_holds(codec.decompress(payload), walk)
            assert "pw_rel" in REGISTRY.entry(name).modes

    def test_supported_iff_the_log_transform_stage_is_built(self):
        for entry in REGISTRY:
            assert ("pw_rel" in entry.modes) == (
                "pw_rel_log" in entry.spec.stage_names
            ), entry.name

    def test_refused_put_leaves_nothing_behind(self, walk, tmp_path):
        store = ArrayStore(tmp_path / "root")
        with pytest.raises(ShapeError, match="waveSZ"):
            store.put("w", walk, eb=EB, mode="pw_rel")  # the default codec
        assert store.names() == ()
        assert not [p for p in (tmp_path / "root").rglob("*") if p.is_file()]
        store.fsck().assert_clean()
