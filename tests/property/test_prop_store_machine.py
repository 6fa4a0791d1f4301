"""One state machine, both object layers.

A :class:`~repro.store.TileStore` is one logical store over whichever
object layer holds its tiles, so the journaled directory
(:class:`ArrayStore`) and the replicated cluster (:class:`ShardGateway`
over a 3-shard R=2 :class:`LocalShardCluster`) are driven through the
*same* rule sequence and checked against one dict model
``{name: (field, eb_abs)}``.  After every step both stores must return
bit-identical arrays within the model's bound, list the same datasets
and leave the local root free of ``fsck`` errors; every put must report the same
logical :class:`PutResult` fields.  The gateway additionally loses and
regains one shard at a time.

Each gateway call goes through a fresh :class:`ShardGateway` (no warm
tile cache or cooling breaker to hide a replica that is really gone),
and a restarted shard is healed the documented way — one full read of
every dataset — before the machine may take the next shard down.

Beside the fresh handles, one gateway stays open for the life of the
machine: the ``read`` / ``read_slice`` / ``ls`` rules also run through
it and must equal the fresh handle's answer.  It is the only handle here
with a manifest memo and a warm tile cache, so it is the one that could
serve a version some owner has moved past — which is why it reads only
in rules, never in the after-every-step invariant (a handle that looks
after every put never holds anything stale), why it warms up on every
dataset right before a shard stops, and why it is the first to read
after a restart, before the fresh handle's healing read: that is when
it meets an owner that missed a put.  Its breakers run on the machine's
clock, which a restart advances past the cool-down — a breaker still
cooling from shard A's outage must not make A look down when B stops.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import StoreError
from repro.shard import LocalShardCluster, manifest_key
from repro.store import ArrayStore

NAMES = ("a.ts", "b.ts", "c.ts")
SHAPES = ((12, 16), (16, 24))
LOGICAL = ("name", "shape", "dtype", "codec", "eb_abs", "tile_digests",
           "compressed_bytes", "original_bytes", "n_tiles", "ratio")


def _field(seed: int, shape: tuple[int, int]) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(0, 0.1, shape), axis=1).astype(np.float32)


class BothLayers(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="store-machine-"))
        self.local = ArrayStore(self.tmp / "local")
        self.cluster = LocalShardCluster(
            [self.tmp / f"shard{i}" for i in range(3)], replicas=2
        ).start()
        self.warm = self.cluster.gateway()
        self.clock = 0.0
        for breaker in self.warm._breakers.values():
            breaker._clock = lambda: self.clock
        self.down: int | None = None
        #: name -> (field, eb_abs, (codec, n_tiles))
        self.model: dict[str, tuple[np.ndarray, float, tuple[str, int]]] = {}

    def teardown(self) -> None:
        self.warm.close()
        self.cluster.close()
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- helpers -----------------------------------------------------------

    def _pick(self, i: int) -> str:
        return sorted(self.model)[i % len(self.model)]

    def _put(self, name: str, field: np.ndarray, eb: float,
             codec: str, n_tiles: int) -> None:
        ours = self.local.put(name, field, codec, eb, "abs", n_tiles=n_tiles)
        with self.cluster.gateway() as gw:
            theirs = gw.put(name, field, codec, eb, "abs", n_tiles=n_tiles)
        for key in LOGICAL:
            assert getattr(ours, key) == getattr(theirs, key), key
        assert ours.eb_abs == eb and ours.replicas == 1 and not ours.degraded
        assert theirs.replicas == 2
        # short of copies only if an owner is down (the lost shard may
        # own none of this put's keys)
        assert self.down is not None or not theirs.degraded
        self.model[name] = (field, eb, (codec, n_tiles))

    def _check_read(
        self, name: str, window: tuple[slice, ...], *, warm: bool = False
    ) -> None:
        field, eb_abs, _ = self.model[name]
        ours = self.local.read_slice(name, window)
        with self.cluster.gateway() as gw:
            theirs = gw.read_slice(name, window)
        assert ours.ok and theirs.ok
        assert ours.tile_indices == theirs.tile_indices
        assert ours.data.dtype == theirs.data.dtype == field.dtype
        np.testing.assert_array_equal(ours.data, theirs.data)
        if warm:
            held = self.warm.read_slice(name, window)
            assert held.ok and held.tile_indices == theirs.tile_indices
            np.testing.assert_array_equal(held.data, theirs.data)
        err = np.abs(ours.data.astype(np.float64) - field[window])
        assert float(err.max()) <= eb_abs

    # -- rules: both layers --------------------------------------------------

    @rule(
        name=st.sampled_from(NAMES), seed=st.integers(0, 2**16),
        shape=st.sampled_from(SHAPES), eb=st.sampled_from((1e-2, 1e-3)),
        codec=st.sampled_from(("wavesz", "sz14")),
        n_tiles=st.sampled_from((1, 2, 4)),
    )
    def put(self, name, seed, shape, eb, codec, n_tiles):
        self._put(name, _field(seed, shape), eb, codec, n_tiles)

    def _reput_changed(self, name: str, delta: float) -> None:
        field, eb, (codec, n_tiles) = self.model[name]
        changed = field.copy()
        changed[: max(2, field.shape[0] // n_tiles)] += np.float32(delta)
        self._put(name, changed, eb, codec, n_tiles)

    @precondition(lambda self: self.model)
    @rule(i=st.integers(0, 2), delta=st.sampled_from((0.5, -2.0)))
    def reput_changed(self, i, delta):
        """Same dataset, first band moved: the other tiles dedup."""
        self._reput_changed(self._pick(i), delta)

    @precondition(lambda self: self.model)
    @rule(i=st.integers(0, 2))
    def read(self, i):
        self._check_read(self._pick(i), (), warm=True)

    @precondition(lambda self: self.model)
    @rule(i=st.integers(0, 2), lo=st.integers(0, 14), rows=st.integers(1, 9),
          cols=st.integers(1, 12))
    def read_slice(self, i, lo, rows, cols):
        name = self._pick(i)
        n0 = self.model[name][0].shape[0]
        lo = min(lo, n0 - 1)
        window = (slice(lo, min(n0, lo + rows)), slice(0, cols))
        self._check_read(name, window, warm=True)

    @rule()
    def ls(self):
        assert self.warm.ls() == self.local.ls()

    @rule()
    def gc(self):
        self.local.gc()
        with self.cluster.gateway() as gw:
            if self.down is None:
                gw.gc()
            else:  # a manifest on the lost shard may be the only reference
                try:
                    gw.gc()
                except StoreError as refusal:
                    assert "gc refused" in str(refusal)
                else:
                    raise AssertionError("gc ran with a shard down")

    # -- rules: gateway only -------------------------------------------------

    @precondition(lambda self: self.down is None)
    @rule(i=st.integers(0, 2))
    def stop_shard(self, i):
        for name in self.model:  # what the warm handle holds is current
            self._check_read(name, (), warm=True)
        self.cluster.stop_shard(i)
        self.down = i

    @precondition(lambda self: self.model and self.down is None)
    @rule(i=st.integers(0, 2), j=st.integers(0, 1),
          delta=st.sampled_from((0.5, -2.0)))
    def put_while_a_manifest_owner_is_away(self, i, j, delta):
        """The sequence a one-owner revalidation gets wrong, whichever
        owner it would ask: the warm handle holds version n, owner ``j``
        misses the put of n+1 and comes back still holding n."""
        name = self._pick(i)
        owner = self.warm.ring.owners(manifest_key(name), 2)[j]
        self.stop_shard(self.cluster.addresses.index(owner))
        self._reput_changed(name, delta)
        self.restart_shard()

    @precondition(lambda self: self.down is not None)
    @rule()
    def restart_shard(self):
        self.cluster.start_shard(self.down)
        self.down = None
        self.clock += 60.0  # the warm handle's breakers cool down
        for name in self.model:  # first to meet the shard that was away
            np.testing.assert_array_equal(
                self.warm.read(name).data, self.local.read(name).data
            )
        with self.cluster.gateway() as gw:  # re-converge its replicas
            for name in self.model:
                assert gw.read(name).ok

    # -- after every step ----------------------------------------------------

    @invariant()
    def same_listing_same_fields_clean_root(self):
        with self.cluster.gateway() as gw:
            assert self.local.names() == gw.names() == tuple(sorted(self.model))
            assert self.local.ls() == gw.ls()
        for name in self.model:
            self._check_read(name, ())
        # superseded tiles wait for gc as orphan *warnings*; nothing may
        # be missing, torn or left half-done
        assert self.local.fsck().errors == ()


# Bounded so tier-1 grows by seconds, and derandomized so the suite runs
# the same sequences every time; widen both locally to go hunting.
TestBothLayers = BothLayers.TestCase
TestBothLayers.settings = settings(
    max_examples=15, stateful_step_count=12, deadline=None,
    derandomize=True, suppress_health_check=list(HealthCheck),
)
