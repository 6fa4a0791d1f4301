"""Content-addressed compressed array store with tile-level random access.

The persistence layer between the codec registry and the serving layer:
fields land on disk *compressed* (CEAZ's parallel-I/O premise) and are
read back selectively at tile granularity (cuSZ's chunk axis).  On
``put`` a field is split into the same independent bands the tiled
compressor uses (:func:`repro.parallel.plan_bands`, clamped to the
field's feasible tile count), each band is compressed under the plan's
per-band bound (the globally resolved absolute one; ``pw_rel`` itself
for a pointwise-relative request), and the resulting container-v2 payloads are
written once per unique content digest:

```
root/
  manifests/<name>.json     dataset name, shape, dtype, codec, bound,
                            tile grid, per-tile content digests
  objects/<sha256>          one compressed tile payload (container v2)
```

Byte-identical tiles — across fields, versions, or datasets — share one
object, so re-putting a snapshot that changed in two bands stores two
objects.  ``read`` reassembles the full field bit-exactly;
``read_slice`` decodes only the tiles overlapping the requested window.
Both go through a byte-budgeted LRU :class:`~repro.store.cache.TileCache`
of decoded tiles and report damage structurally: with ``strict=False`` a
corrupt tile (caught by the container checksums or the content digest)
is skipped and its index reported instead of failing the whole read.

Two classes split that work.  :class:`TileStore` is the *logical* store
— ``put`` / ``read`` / ``read_slice`` / ``ls``, the tile cache and the
one :class:`PutResult` — written once over a four-method object layer.
:class:`ArrayStore` is the object layer that is the directory above;
:class:`repro.shard.ShardGateway` is the one that is a replicated
cluster of such directories.  A durability or availability guarantee
belongs to the layer that makes it.

Crash consistency (see ``docs/RESILIENCE.md``) is
:meth:`ArrayStore._commit`'s: every on-disk mutation
goes through an injectable :class:`~repro.faults.fsim.OsFileSystem` with
full fsync discipline (temp file synced before the rename, parent
directory synced after), a put writes a journal entry *before* any
tile or manifest write, and opening the store replays the journal —
rolling interrupted puts back so the invariant holds: **an acked put is
durable, an interrupted put is invisible**.  :meth:`ArrayStore.fsck`
audits (and optionally repairs) the whole layout; :meth:`ArrayStore.gc`
also sweeps stale ``.tmp-*`` files left by crashed writers.

Concurrency: **one process per store root, any number of threads** —
every mutation of the directory runs under one lock per
:class:`ArrayStore` (compression, the slow part of a put, stays outside
it), so a second handle or process on the same root is not supported.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from ..codec.registry import REGISTRY, get_codec
from ..errors import ChecksumError, ContainerError, ReproError, StoreError
from ..faults.fsim import OsFileSystem
from ..io.container import Container
from ..lru import BoundedLRU
from ..parallel import band_outcomes, decode_band, plan_bands
from ..streams import check_field
from ..tiling import TileGrid, normalize_slices
from .cache import DEFAULT_CACHE_BYTES, TileCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.metrics import MetricsRegistry
    from .fsck import FsckReport

__all__ = [
    "TileStore",
    "ArrayStore",
    "PutResult",
    "StoreReadResult",
    "TileDamage",
    "GCResult",
    "RecoveryResult",
    "MANIFEST_FORMAT",
    "JOURNAL_FORMAT",
    "manifest_digest",
    "compress_field_tiles",
    "decode_tile_blob",
    "open_tile_blob",
    "assemble_tiles",
    "summarize_entropy",
]

MANIFEST_FORMAT = 1
JOURNAL_FORMAT = 1

#: Parsed manifests one handle remembers, least recently used out first:
#: a shard's store or a gateway serving any number of names holds at
#: most this many.
MANIFEST_MEMO_ENTRIES = 1024


def manifest_digest(m: dict[str, Any]) -> str:
    """SHA-256 of a manifest's canonical JSON: the one identity a
    replica comparison, a version tie-break and a conditional
    ``store_get_manifest`` (``if_digest``) all mean by "the same
    manifest"."""
    return hashlib.sha256(json.dumps(m, sort_keys=True).encode()).hexdigest()


_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")
_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")

_TX_SEQ = itertools.count(1)


def compress_field_tiles(
    field: np.ndarray,
    codec: str = "wavesz",
    eb: float = 1e-3,
    mode: str = "vr_rel",
    *,
    n_tiles: int = 4,
) -> tuple[dict[str, Any], dict[str, bytes]]:
    """Phase 0 of any put: compress ``field`` into its tile payloads.

    Pure compute — nothing touches disk or the network.  Returns the
    manifest dict (format :data:`MANIFEST_FORMAT`) and the unique
    payloads keyed by content digest.  :meth:`TileStore.put` runs it
    before either object layer commits a byte, which is what makes a
    sharded read bit-exact with the local path: the bytes placed on the
    wire are the same bytes a single store would have written.  The
    codec's field contract is checked on the whole field first.
    """
    entry = REGISTRY.entry(codec)
    check_field(field, entry.name, entry.dims)
    data = np.ascontiguousarray(field)
    compressor = get_codec(codec)
    plan = plan_bands(data, eb, mode, n_tiles, clamp=True)
    bands = plan.compress(compressor, data)
    digests = [hashlib.sha256(cf.payload).hexdigest() for cf in bands]
    payloads = {d: cf.payload for d, cf in zip(digests, bands)}

    manifest = {
        "format": MANIFEST_FORMAT,
        "name": None,  # filled in by the caller once the name is checked
        "shape": [int(d) for d in data.shape],
        "dtype": str(data.dtype),
        "codec": compressor.name,  # the canonical wire name
        "eb": float(eb),
        "mode": str(mode),
        "eb_abs": float(plan.bound.absolute),
        "band_starts": [int(s.start) for s in plan.slices],
        "tiles": digests,
        "tile_bytes": [len(cf.payload) for cf in bands],
        # resolved codes_entropy backend per tile; None for codecs
        # without the stage (the probe may resolve per tile under "auto")
        "tile_entropy": [cf.meta.get("entropy") for cf in bands],
        "original_bytes": int(data.size * data.dtype.itemsize),
    }
    return manifest, payloads


def summarize_entropy(tile_entropy: Any) -> str:
    """One-token summary of a manifest's per-tile entropy backends.

    ``"-"`` for pre-entropy manifests and codecs without the stage;
    otherwise the sorted distinct backends joined with ``+`` (the
    ``auto`` knob may legitimately resolve differently per tile).
    """
    if not isinstance(tile_entropy, list):
        return "-"
    seen = sorted({e for e in tile_entropy if isinstance(e, str)})
    if not seen:
        return "-"
    return "+".join(seen)


def open_tile_blob(digest: str, blob: bytes) -> Container:
    """Verify one stored copy of object ``digest`` and parse it.

    Raises :class:`ChecksumError` on a content digest or container
    integrity mismatch.  What an object layer checks a copy with before
    handing it over, so damage classifies identically wherever the bytes
    came from.
    """
    if hashlib.sha256(blob).hexdigest() != digest:
        raise ChecksumError(
            f"object {digest} content does not match its digest"
        )
    # The digest catches any post-write mutation; the strict parse
    # additionally catches payloads that were damaged *before* they
    # reached the object area (an object imported or written by an
    # outside tool whose name does match its corrupt content).
    try:
        return Container.from_bytes(blob)
    except ContainerError as exc:
        raise ChecksumError(
            f"object {digest} failed container integrity: {exc}"
        ) from exc


def decode_tile_blob(
    m: dict[str, Any], grid: TileGrid, index: int, blob: bytes
) -> np.ndarray:
    """Verify and decode one tile payload against its manifest entry.

    Raises :class:`ChecksumError` (:func:`open_tile_blob`) or
    :class:`ContainerError` (undecodable payload, or a band of the wrong
    shape or dtype — :func:`repro.parallel.decode_band`).  A store read
    decodes its tiles the same way, as one batch
    (:meth:`TileStore._tiles`).
    """
    return decode_band(
        get_codec(str(m["codec"])), grid, index,
        open_tile_blob(m["tiles"][index], blob), m["dtype"],
    )


def assemble_tiles(
    m: dict[str, Any],
    grid: TileGrid,
    window: tuple[slice, ...],
    tiles,
    fetch,
    *,
    strict: bool,
) -> StoreReadResult:
    """Assemble decoded tiles into the requested window.

    ``fetch(index)`` returns one decoded tile or raises a
    :class:`ReproError`; with ``strict=False`` those failures become
    :class:`TileDamage` rows (stage ``missing`` for :class:`StoreError`,
    ``checksum`` for :class:`ChecksumError`, ``decode`` otherwise) and
    the damaged rows stay zero-filled.
    """
    out = np.zeros(
        tuple(s.stop - s.start for s in window), dtype=np.dtype(m["dtype"])
    )
    rest = tuple(window[1:])
    damage: list[TileDamage] = []
    touched: list[int] = []
    for t in tiles:
        touched.append(t)
        try:
            tile = fetch(t)
        except ReproError as exc:
            if strict:
                raise
            stage = (
                "missing" if isinstance(exc, StoreError)
                else "checksum" if isinstance(exc, ChecksumError)
                else "decode"
            )
            damage.append(
                TileDamage(
                    index=t, digest=m["tiles"][t], stage=stage,
                    error=str(exc),
                )
            )
            continue
        t0, t1 = grid.band_range(t)
        lo = max(t0, window[0].start)
        hi = min(t1, window[0].stop)
        out[(slice(lo - window[0].start, hi - window[0].start),)] = tile[
            (slice(lo - t0, hi - t0),) + rest
        ]
    return StoreReadResult(
        data=out, damaged=tuple(damage), tile_indices=tuple(touched)
    )


@dataclass(frozen=True)
class PutResult:
    """Outcome of one ``put``: what was written, what deduplicated away.

    Name through ``original_bytes`` are the same whichever object layer
    committed the put; the four counts are what that layer physically
    did, and only a replicated commit overrides the last four.
    """

    name: str
    shape: tuple[int, ...]
    dtype: str
    codec: str
    eb_abs: float
    tile_digests: tuple[str, ...]
    compressed_bytes: int  # one logical copy (sum of tile payloads)
    original_bytes: int
    new_objects: int  # unique digests the object layer did not hold
    dedup_objects: int
    stored_bytes: int  # bytes newly written to the object area(s)
    dedup_bytes: int  # bytes that existing objects saved us
    version: int = 1
    replicas: int = 1
    degraded: bool = False  # acked with fewer than `replicas` copies somewhere
    per_shard: dict[str, int] = field(default_factory=dict)  # objects written

    @property
    def n_tiles(self) -> int:
        return len(self.tile_digests)

    @property
    def ratio(self) -> float:
        """Compression ratio of one logical copy (replication excluded)."""
        return (
            self.original_bytes / self.compressed_bytes
            if self.compressed_bytes else 0.0
        )


@dataclass(frozen=True)
class TileDamage:
    """Why one tile of a read could not be recovered."""

    index: int
    digest: str
    stage: str  # "missing" | "checksum" | "decode"
    error: str


@dataclass(frozen=True)
class StoreReadResult:
    """A (possibly partial) read: the data plus structured damage.

    ``data`` always has the full requested shape; rows of damaged tiles
    are zero-filled.  ``damaged`` lists what was lost — empty on a clean
    read — and ``tile_indices`` records which tiles the read touched at
    all (the slice reader's proof that it decoded only overlapping
    tiles).
    """

    data: np.ndarray
    damaged: tuple[TileDamage, ...] = ()
    tile_indices: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.damaged

    @property
    def damaged_tiles(self) -> tuple[int, ...]:
        return tuple(d.index for d in self.damaged)


@dataclass(frozen=True)
class GCResult:
    """Outcome of a garbage-collection pass over the object area."""

    removed: tuple[str, ...]  # digests this store removed itself
    reclaimed_bytes: int
    kept: int
    tmp_removed: tuple[str, ...] = ()
    #: a cluster-wide pass: each shard's own removed / reclaimed_bytes /
    #: kept counts (the totals above sum them)
    per_shard: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def n_removed(self) -> int:
        return len(self.removed) + sum(
            s["removed"] for s in self.per_shard.values()
        )


@dataclass(frozen=True)
class RecoveryResult:
    """What opening the store had to clean up.

    ``actions`` is a tuple of ``(kind, subject)`` pairs — ``kind`` one of
    ``"rolled-back"`` (a journaled put undone), ``"torn-journal"`` (an
    unreadable journal entry removed; by write-ahead ordering nothing
    after it was written), ``"stale-tmp"`` (a ``.tmp-*`` leftover swept).
    An empty tuple means the store was already clean.
    """

    actions: tuple[tuple[str, str], ...] = ()

    @property
    def clean(self) -> bool:
        return not self.actions

    def count(self, kind: str) -> int:
        return sum(1 for k, _ in self.actions if k == kind)


class TileStore:
    """The logical store: fields in by tile, windows out through a cache.

    Everything here is written once for every place tiles can live.  A
    subclass is an *object layer* and supplies exactly four methods:

    ``manifest(name)``
        the current manifest dict of one dataset (``StoreError`` if none);
    ``names()``
        the dataset names, sorted;
    ``_commit(name, manifest, payloads)``
        make one compressed field durable — tiles, then manifest — and
        return the :class:`PutResult` fields only the layer can count;
    ``_load_many(digests)``
        one verified copy of each object, in order: its parsed container
        (every copy is checked with :func:`open_tile_blob` first, so a
        layer with several copies can try the next), or the
        :class:`ReproError` that stands for it.  A read loads every tile
        it misses in the cache with one call, then decodes them as one
        batch.

    Counters go under the layer's ``prefix``: ``<prefix>.cache.*`` for
    the tile cache and ``<prefix>.degraded_reads`` for every read that
    came back with damaged tiles.
    """

    def __init__(
        self,
        cache_bytes: int,
        metrics: "MetricsRegistry | None",
        prefix: str = "store",
    ) -> None:
        self.metrics = metrics
        self._prefix = prefix
        self.cache = TileCache(
            cache_bytes, metrics=metrics, gauge_prefix=f"{prefix}.cache"
        )
        #: Tiles actually decompressed (cache misses included, hits not) —
        #: the counter the "slice decodes only overlapping tiles" and
        #: "warm reads decode nothing" guarantees are asserted against.
        self.decode_calls = 0
        #: name -> the manifest this handle last parsed or saw win (see each
        #: layer's :meth:`manifest`).  It only remembers; whoever reads an
        #: entry proves it still current.
        self._manifests = BoundedLRU(max_entries=MANIFEST_MEMO_ENTRIES)

    def _incr(self, name: str, n: int = 1) -> None:
        if self.metrics is not None and n:
            self.metrics.incr(name, n)

    # -- the object layer ---------------------------------------------------

    def manifest(self, name: str) -> dict[str, Any]:
        raise NotImplementedError

    def names(self) -> tuple[str, ...]:
        raise NotImplementedError

    def _commit(
        self, name: str, manifest: dict[str, Any], payloads: dict[str, bytes]
    ) -> dict[str, Any]:
        raise NotImplementedError

    def _load_many(self, digests: list[str]) -> list[Container | ReproError]:
        raise NotImplementedError

    # -- writing ------------------------------------------------------------

    @staticmethod
    def _check_name(name: str) -> str:
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise StoreError(
                f"bad dataset name {name!r}: use 1-128 characters from "
                "[A-Za-z0-9._-], starting with a letter or digit"
            )
        return name

    def put(
        self,
        name: str,
        field: np.ndarray,
        codec: str = "wavesz",
        eb: float = 1e-3,
        mode: str = "vr_rel",
        *,
        n_tiles: int = 4,
    ) -> PutResult:
        """Compress ``field`` per tile and persist it under ``name``.

        ``codec`` is any registry name (alias/profile included); the
        manifest records the canonical wire name so reads dispatch the
        same way payload headers do.  ``n_tiles`` is clamped to the
        field's feasible band count, so small fields store as one tile
        instead of failing.  Re-putting an existing name replaces its
        manifest; superseded objects stay until ``gc``.

        All compression happens up front — a request the codec refuses
        (a ``pw_rel`` bound without a log-transform stage, a shape it
        cannot tile) raises before the object layer sees a byte — then
        the layer's ``_commit`` makes the result durable under its own
        contract, and returning is the ack.
        """
        self._check_name(name)
        manifest, payloads = compress_field_tiles(
            field, codec, eb, mode, n_tiles=n_tiles
        )
        manifest["name"] = name
        counted = self._commit(name, manifest, payloads)
        return PutResult(
            name=name,
            shape=tuple(manifest["shape"]),
            dtype=str(manifest["dtype"]),
            codec=str(manifest["codec"]),
            eb_abs=float(manifest["eb_abs"]),
            tile_digests=tuple(manifest["tiles"]),
            compressed_bytes=sum(manifest["tile_bytes"]),
            original_bytes=int(manifest["original_bytes"]),
            **counted,
        )

    # -- reading ------------------------------------------------------------

    @staticmethod
    def _grid(m: dict[str, Any]) -> TileGrid:
        return TileGrid.from_starts(m["shape"], m["band_starts"])

    def _tiles(
        self, m: dict[str, Any], grid: TileGrid, tiles: tuple[int, ...]
    ) -> tuple[dict[int, np.ndarray], dict[int, ReproError]]:
        """Every tile of ``tiles`` decoded via the cache, verifying
        everything; the cache misses are loaded with one
        :meth:`_load_many`, then decoded as one batch
        (:func:`repro.parallel.band_outcomes`).

        Returns the decoded tiles and, for the others, what each raised
        alone: :class:`StoreError` (no copy of the object),
        :class:`ChecksumError` (content digest or container checksum
        mismatch) or :class:`ContainerError` (undecodable payload); the
        read loop maps these onto :class:`TileDamage` stages.
        """
        got: dict[int, np.ndarray] = {}
        misses: dict[str, list[int]] = {}  # digest -> its tiles, first decodes
        for t in tiles:
            digest = m["tiles"][t]
            if digest in misses:
                misses[digest].append(t)
                continue
            tile = self.cache.get(digest)
            if tile is not None:
                got[t] = tile
                continue
            misses[digest] = [t]
        lost: dict[int, ReproError] = {}
        if not misses:  # a warm read loads and decodes nothing
            return got, lost
        first = [ts[0] for ts in misses.values()]
        decoded = band_outcomes(
            get_codec(str(m["codec"])), grid, first,
            self._load_many(list(misses)), m["dtype"],
        )
        for (digest, ts), tile in zip(misses.items(), decoded):
            if isinstance(tile, ReproError):
                lost.update(dict.fromkeys(ts, tile))
                continue
            self.decode_calls += 1
            self.cache.put(digest, tile)
            got.update(dict.fromkeys(ts, tile))
        return got, lost

    def read(self, name: str, *, strict: bool = True) -> StoreReadResult:
        """Reassemble the full field, bit-exact with the serial tiled path.

        ``strict=False`` survives damaged tiles: their rows come back
        zero-filled and their indices are reported in ``damaged``.
        """
        return self.read_slice(name, (), strict=strict)

    def read_slice(self, name: str, slices, *, strict: bool = True) -> StoreReadResult:
        """Decode only the tiles overlapping ``slices`` and cut the window.

        ``slices`` is anything :func:`repro.tiling.normalize_slices`
        accepts: a tuple of ``slice`` objects / ``(start, stop)`` pairs /
        ``None`` per axis, trailing axes defaulting to full extent.
        """
        m = self.manifest(name)
        grid = self._grid(m)
        window = normalize_slices(grid.shape, slices)
        tiles = grid.overlapping(window[0])
        got, lost = self._tiles(m, grid, tiles)

        def fetch(t: int) -> np.ndarray:
            if t in lost:
                raise lost[t]
            return got[t]

        result = assemble_tiles(
            m, grid, window, tiles, fetch if lost else got.__getitem__,
            strict=strict,
        )
        if result.damaged:
            self._incr(f"{self._prefix}.degraded_reads")
        return result

    def ls(self) -> list[dict[str, Any]]:
        """One summary row per dataset, sorted by name."""
        rows = []
        for name in self.names():
            m = self.manifest(name)
            rows.append(
                {
                    "name": m["name"],
                    "shape": tuple(m["shape"]),
                    "dtype": m["dtype"],
                    "codec": m["codec"],
                    "eb": m.get("eb"),
                    "mode": m.get("mode"),
                    "n_tiles": len(m["tiles"]),
                    "entropy": summarize_entropy(m.get("tile_entropy")),
                    "original_bytes": m.get("original_bytes", 0),
                    "compressed_bytes": sum(m.get("tile_bytes", [])),
                }
            )
        return rows


class ArrayStore(TileStore):
    """A directory of compressed, tiled, content-addressed arrays.

    The journaled-directory object layer of a :class:`TileStore`.  One
    process per root; one handle may be shared by any number of threads
    (the service runs every store op in a worker thread).
    """

    def __init__(
        self,
        root: str | Path,
        *,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        metrics: "MetricsRegistry | None" = None,
        fs: OsFileSystem | None = None,
        recover: bool = True,
    ) -> None:
        super().__init__(cache_bytes, metrics)
        self.root = Path(root)
        self.fs = fs if fs is not None else OsFileSystem()
        # Serializes everything that mutates the directory.  Without it
        # two threads putting tiles that dedup against each other race:
        # one put's rollback deletes objects the other has counted on.
        self._lock = threading.Lock()
        #: what the opening recovery pass found (empty on a clean store)
        self.recovery = RecoveryResult()
        if recover:
            self.recovery = self.recover()

    # -- paths ------------------------------------------------------------

    @property
    def _manifest_dir(self) -> Path:
        return self.root / "manifests"

    @property
    def _object_dir(self) -> Path:
        return self.root / "objects"

    @property
    def _journal_dir(self) -> Path:
        return self.root / "journal"

    def _manifest_path(self, name: str) -> Path:
        return self._manifest_dir / f"{name}.json"

    def _object_path(self, digest: str) -> Path:
        return self._object_dir / digest

    # -- durable writing ---------------------------------------------------

    def _atomic_write(self, path: Path, blob: bytes) -> None:
        """Write-then-rename with full fsync discipline.

        The temp file is synced *before* the rename (so the entry can
        never point at torn data) and the parent directory *after* (so
        the entry itself survives a crash).  A survivable failure (e.g.
        ENOSPC) cleans its temp file up; a crash leaves it for
        :meth:`recover`/:meth:`gc` to sweep.
        """
        tmp = path.with_name(f".tmp-{os.getpid()}-{path.name}")
        try:
            self.fs.write_bytes(tmp, blob)
            self.fs.fsync_file(tmp)
            self.fs.replace(tmp, path)
        except OSError:
            try:
                if tmp.exists():
                    self.fs.unlink(tmp)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            raise
        self.fs.fsync_dir(path.parent)

    def _durable_unlink(self, path: Path) -> None:
        self.fs.unlink(path)
        self.fs.fsync_dir(path.parent)

    # -- writing ----------------------------------------------------------

    def _commit(
        self, name: str, manifest: dict[str, Any], payloads: dict[str, bytes]
    ) -> dict[str, Any]:
        """Make one compressed field durable: journal, tiles, manifest.

        Crash contract: a journal entry naming the transaction (prior
        manifest bytes + the tile digests about to be written) is made
        durable *before* any tile or manifest write.  Returning — the
        ack — happens only after the manifest is durable and the journal
        entry is gone.  A crash at any interior step is rolled back by
        :meth:`recover` on the next open; a survivable I/O failure
        (ENOSPC, a failed rename) is rolled back immediately and
        re-raised as :class:`StoreError`.
        """
        digests = manifest["tiles"]

        with self._lock:
            self.fs.mkdir(self._manifest_dir)
            self.fs.mkdir(self._object_dir)
            self.fs.mkdir(self._journal_dir)

            new_digests = [
                d for d in dict.fromkeys(digests)
                if not self._object_path(d).exists()
            ]
            mpath = self._manifest_path(name)
            prior_text = mpath.read_text() if mpath.exists() else None

            # Phase 1: the write-ahead journal entry — durable before any
            # other byte moves, so recovery always knows how to undo us.
            entry = {
                "format": JOURNAL_FORMAT,
                "txid": f"{os.getpid()}-{next(_TX_SEQ)}",
                "name": name,
                "prior_manifest": prior_text,
                "new_tiles": new_digests,
            }
            jpath = self._journal_dir / f"tx-{entry['txid']}.json"
            try:
                self._atomic_write(jpath, json.dumps(entry, indent=2).encode())
            except OSError as exc:
                # nothing was written yet — the put simply never happened.
                raise StoreError(
                    f"put {name!r} could not journal its transaction: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc

            # Phase 2: tiles, then manifest — each individually atomic.
            try:
                for digest in new_digests:
                    self._atomic_write(self._object_path(digest), payloads[digest])
                self._atomic_write(
                    mpath, json.dumps(manifest, indent=2, sort_keys=True).encode()
                )
            except OSError as exc:
                self._rollback(entry)
                try:
                    self._durable_unlink(jpath)
                except OSError:  # pragma: no cover - sweep catches it later
                    pass
                self._incr("store.put_rollbacks")
                raise StoreError(
                    f"put {name!r} failed and was rolled back: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc

            self._manifests.pop(name)

            # Phase 3: commit — the journal entry disappears, then we ack.
            self._durable_unlink(jpath)

        stored_bytes = sum(len(payloads[d]) for d in new_digests)
        return {
            "new_objects": len(new_digests),
            "dedup_objects": len(digests) - len(new_digests),
            "stored_bytes": stored_bytes,
            "dedup_bytes": sum(manifest["tile_bytes"]) - stored_bytes,
        }

    # -- manifests ---------------------------------------------------------

    def manifest(self, name: str) -> dict[str, Any]:
        """One dataset's validated manifest (shared: treat as read-only)."""
        return self.manifest_with_digest(name)[0]

    @staticmethod
    def _file_identity(st: os.stat_result) -> tuple[int, int, int]:
        return st.st_ino, st.st_mtime_ns, st.st_size

    def _remembered(self, name: str) -> tuple[Any, dict[str, Any], str] | None:
        """The memo's ``(identity, manifest, digest)`` for ``name`` if the
        file is still the one that was parsed: one ``stat``, no read."""
        held = self._manifests.get(name)
        try:
            if held is not None and held[0] == self._file_identity(
                os.stat(self._manifest_path(name))
            ):
                return held
        except OSError:
            pass
        return None

    def manifest_with_digest(self, name: str) -> tuple[dict[str, Any], str]:
        """The one manifest loader: ``(manifest, manifest_digest(it))``.

        A manifest file is parsed once and remembered.  Every mutation
        this handle makes drops the entry, and every lookup checks the
        file's ``(st_ino, st_mtime_ns, st_size)`` against what was
        parsed — so a writer outside the one-process contract (a test, a
        ``wavesz store --root`` beside a live server) is seen too: it
        replaces the file, which changes the inode.
        """
        self._check_name(name)
        held = self._remembered(name)
        if held is not None:
            return held[1], held[2]
        try:
            with open(self._manifest_path(name), "rb") as f:
                # of the open file: the identity of exactly the bytes read
                identity = self._file_identity(os.fstat(f.fileno()))
                m = json.loads(f.read())
        except (FileNotFoundError, NotADirectoryError):
            raise StoreError(
                f"store at {self.root} has no dataset {name!r}"
            ) from None
        except (OSError, ValueError) as exc:  # ValueError: not JSON / not UTF-8
            raise StoreError(f"manifest for {name!r} is unreadable: {exc}") from exc
        entry = (identity, self._validate_manifest(name, m), manifest_digest(m))
        self._manifests.put(name, entry)
        return entry[1], entry[2]

    def manifest_unchanged(self, name: str, digest: str) -> bool:
        """Whether the remembered manifest of ``name`` still stands and
        has this ``digest`` — never a file read or a parse, so cheap
        enough for the server to ask on its event loop.  ``False`` only
        means "load it and compare"."""
        held = self._remembered(name)
        return held is not None and held[2] == digest

    @staticmethod
    def _validate_manifest(name: str, m: Any) -> dict[str, Any]:
        if not isinstance(m, dict):
            raise StoreError(f"manifest for {name!r} is not a JSON object")
        if m.get("format") != MANIFEST_FORMAT:
            raise StoreError(
                f"manifest for {name!r} has unsupported format "
                f"{m.get('format')!r}"
            )
        tiles = m.get("tiles")
        starts = m.get("band_starts")
        if (
            not isinstance(tiles, list)
            or not tiles
            or not all(isinstance(t, str) and _DIGEST_RE.match(t) for t in tiles)
        ):
            raise StoreError(f"manifest for {name!r} has a bad tile list")
        if not isinstance(starts, list) or len(starts) != len(tiles):
            raise StoreError(
                f"manifest for {name!r}: {len(tiles)} tiles but band starts "
                f"{starts!r}"
            )
        for key in ("shape", "dtype", "codec"):
            if key not in m:
                raise StoreError(f"manifest for {name!r} misses {key!r}")
        return m

    def names(self) -> tuple[str, ...]:
        """Dataset names, sorted — read off the manifest file names.

        Nothing is parsed, so a corrupt manifest cannot fail the listing
        (the server's liveness probe counts datasets with it), and a
        writer's ``.tmp-*`` file is never taken for a dataset.
        """
        return tuple(sorted(  # globbing a directory not yet made is empty
            p.stem for p in self._manifest_dir.glob("*.json")
            if not p.name.startswith(".tmp-")
        ))

    def delete(self, name: str) -> None:
        """Drop a dataset's manifest (its objects reclaim on :meth:`gc`)."""
        self._check_name(name)
        path = self._manifest_path(name)
        with self._lock:
            if not path.exists():
                raise StoreError(f"store at {self.root} has no dataset {name!r}")
            try:
                self._durable_unlink(path)
            finally:
                self._manifests.pop(name)

    # -- shard-facing primitives -------------------------------------------
    #
    # A shard of a distributed store receives *individual* tile objects
    # and replicated manifests from the gateway rather than whole fields;
    # these methods are that narrow surface.  They share the durable
    # `_atomic_write` discipline with `put`, so a shard's crash story is
    # the same as a standalone store's.

    def put_object(
        self, blob: bytes, digest: str | None = None, *, overwrite: bool = False
    ) -> tuple[str, bool]:
        """Store one content-addressed object; returns (digest, written).

        ``digest``, when given, is verified against the blob's SHA-256 —
        a gateway replicating a tile cannot silently store bytes under
        the wrong name.  An existing object is left untouched unless
        ``overwrite=True`` (the read-repair path for a replica whose
        on-disk bytes rotted: its content no longer matches its name).
        """
        actual = hashlib.sha256(blob).hexdigest()
        if digest is not None and digest != actual:
            raise ChecksumError(
                f"object content hashes to {actual}, not the declared "
                f"digest {digest}"
            )
        path = self._object_path(actual)
        with self._lock:
            if path.exists() and not overwrite:
                return actual, False
            self.fs.mkdir(self._object_dir)
            try:
                self._atomic_write(path, blob)
            except OSError as exc:
                raise StoreError(
                    f"object {actual} could not be stored: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            self.cache.discard(actual)
        return actual, True

    def get_object(self, digest: str) -> bytes:
        """Read one object's raw payload, verifying content == digest."""
        if not isinstance(digest, str) or not _DIGEST_RE.match(digest):
            raise StoreError(f"bad object digest {digest!r}")
        path = self._object_path(digest)
        if not path.exists():
            raise StoreError(f"object {digest} is missing from {self.root}")
        blob = path.read_bytes()
        if hashlib.sha256(blob).hexdigest() != digest:
            raise ChecksumError(
                f"object {digest} content does not match its digest"
            )
        return blob

    def has_objects(self, digests) -> dict[str, bool]:
        """Which of ``digests`` exist here (the gateway's dedup probe)."""
        out: dict[str, bool] = {}
        for d in digests:
            if not isinstance(d, str) or not _DIGEST_RE.match(d):
                raise StoreError(f"bad object digest {d!r}")
            out[d] = self._object_path(d).exists()
        return out

    def put_manifest(self, name: str, manifest: dict[str, Any]) -> None:
        """Durably (re)write one dataset manifest, validated first.

        The gateway's replication path: the manifest may reference tiles
        that live on *other* shards, which is why a sharded shard's
        ``fsck`` is expected to report those digests missing — see
        ``docs/API.md`` on sharded layouts.
        """
        self._check_name(name)
        m = self._validate_manifest(name, manifest)
        blob = json.dumps(m, indent=2, sort_keys=True).encode()
        with self._lock:
            self.fs.mkdir(self._manifest_dir)
            try:
                self._atomic_write(self._manifest_path(name), blob)
            except OSError as exc:
                raise StoreError(
                    f"manifest for {name!r} could not be stored: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            finally:
                self._manifests.pop(name)

    # -- recovery ----------------------------------------------------------

    def _referenced_tolerant(self) -> frozenset[str]:
        """Referenced digests, skipping manifests recovery can't read yet."""
        refs: set[str] = set()
        for name in self.names():
            try:
                refs.update(self.manifest(name)["tiles"])
            except ReproError:
                continue
        return frozenset(refs)

    def _rollback(self, entry: dict[str, Any]) -> None:
        """Undo one journaled put: restore the prior manifest, drop the
        tiles the transaction introduced (unless another manifest now
        references them)."""
        name = str(entry.get("name", ""))
        mpath = self._manifest_path(name)
        prior = entry.get("prior_manifest")
        try:
            if prior is not None:
                if not mpath.exists() or mpath.read_text() != prior:
                    self._atomic_write(mpath, str(prior).encode())
            elif mpath.exists():
                self._durable_unlink(mpath)
        finally:
            self._manifests.pop(name)
        refs = self._referenced_tolerant()
        for digest in entry.get("new_tiles", ()):
            if not isinstance(digest, str) or not _DIGEST_RE.match(digest):
                continue
            path = self._object_path(digest)
            if digest not in refs and path.exists():
                self._durable_unlink(path)
            self.cache.discard(digest)

    def _journal(self) -> list[tuple[Path, dict[str, Any] | str]]:
        """Every journal entry file with its entry, or why it is
        unreadable — the one reader :meth:`recover` and ``fsck`` share.

        An entry of another format is unreadable too: nothing in it can
        be trusted to name a transaction of this store.
        """
        if not self._journal_dir.is_dir():
            return []
        entries: list[tuple[Path, dict[str, Any] | str]] = []
        for jpath in sorted(self._journal_dir.glob("*.json")):
            try:
                entry = json.loads(jpath.read_text())
                if not isinstance(entry, dict) or not isinstance(
                    entry.get("name"), str
                ):
                    raise ValueError("not a journal object")
                if entry.get("format") != JOURNAL_FORMAT:
                    raise ValueError(
                        f"unsupported journal format {entry.get('format')!r}"
                    )
            except (OSError, ValueError) as exc:
                entry = str(exc)
            entries.append((jpath, entry))
        return entries

    def _sweep_tmp(self, *, remove: bool = True) -> list[tuple[Path, int]]:
        """Every ``.tmp-*`` crash leftover with its size, durably removed
        unless ``remove=False`` — the one sweep :meth:`recover`,
        :meth:`gc` and ``fsck`` share."""
        swept: list[tuple[Path, int]] = []
        for d in (self._manifest_dir, self._object_dir, self._journal_dir):
            if not d.is_dir():
                continue
            for path in sorted(d.glob(".tmp-*")):
                try:
                    size = path.stat().st_size
                    if remove:
                        self._durable_unlink(path)
                except OSError:  # pragma: no cover - racing writer
                    continue
                swept.append((path, size))
        return swept

    def recover(self) -> RecoveryResult:
        """Replay-or-roll-back the journal and sweep crash leftovers.

        Runs automatically when the store is opened.  Idempotent: a crash
        *during* recovery is repaired by the next recovery.  Journal
        entries that survive a crash mean the put never acked (the commit
        point is the entry's durable removal), so each one is rolled
        back; an unreadable (torn) entry means the crash happened while
        the entry itself was being written — write-ahead ordering
        guarantees nothing else moved, so it is simply dropped.
        """
        with self._lock:
            actions: list[tuple[str, str]] = []
            for jpath, entry in self._journal():
                if isinstance(entry, str):
                    self._durable_unlink(jpath)
                    actions.append(("torn-journal", jpath.name))
                    continue
                self._rollback(entry)
                self._durable_unlink(jpath)
                actions.append(("rolled-back", str(entry["name"])))
            actions.extend(("stale-tmp", p.name) for p, _ in self._sweep_tmp())
            self._incr("store.rollbacks", sum(
                1 for k, _ in actions if k == "rolled-back"
            ))
        return RecoveryResult(tuple(actions))

    def fsck(self, *, repair: bool = False, deep: bool = False) -> "FsckReport":
        """Audit every manifest, object, journal entry and temp file.

        See :func:`repro.store.fsck.run_fsck` for the finding taxonomy.
        ``repair=True`` fixes what can be fixed (journal rollback, orphan
        and temp-file removal); ``deep=True`` additionally decodes every
        referenced tile and checks its shape.
        """
        from .fsck import run_fsck

        with self._lock:  # audits too: an in-flight put is not a finding
            return run_fsck(self, repair=repair, deep=deep)

    # -- reading ----------------------------------------------------------

    def _load_many(self, digests: list[str]) -> list[Container | ReproError]:
        out: list[Container | ReproError] = []
        for digest in digests:  # one copy each: nothing to fall back to
            path = self._object_path(digest)
            try:
                if not path.exists():
                    raise StoreError(
                        f"object {digest} is missing from {self.root}"
                    )
                out.append(open_tile_blob(digest, path.read_bytes()))
            except ReproError as exc:
                out.append(exc)
        return out

    # -- garbage collection ------------------------------------------------

    def referenced_digests(self) -> frozenset[str]:
        """Every object digest some manifest currently points at."""
        refs: set[str] = set()
        for name in self.names():
            refs.update(self.manifest(name)["tiles"])
        return frozenset(refs)

    def gc(self, *, extra_refs=()) -> GCResult:
        """Remove objects no manifest references (superseded versions,
        deleted datasets) and sweep stale ``.tmp-*`` files left behind by
        crashed writers.  Safe to run any time; referenced objects,
        journal entries and foreign files are never touched.

        ``extra_refs`` extends the keep-set with digests referenced from
        *outside* this directory — the shard gateway passes the union of
        every manifest in the cluster, because a shard may hold tiles
        whose manifests replicate on other shards.  Running a bare
        ``gc()`` on one shard of a sharded deployment would sweep those,
        so shard gc must go through the gateway.
        """
        with self._lock:
            refs = self.referenced_digests() | frozenset(extra_refs)
            removed: list[str] = []
            tmp_removed: list[str] = []
            reclaimed = 0
            kept = 0
            if self._object_dir.is_dir():
                for path in sorted(self._object_dir.iterdir()):
                    if not _DIGEST_RE.match(path.name):
                        continue  # temp files / foreign junk handled below
                    if path.name in refs:
                        kept += 1
                        continue
                    reclaimed += path.stat().st_size
                    self.fs.unlink(path)
                    self.cache.discard(path.name)
                    removed.append(path.name)
                self.fs.fsync_dir(self._object_dir)
            for path, size in self._sweep_tmp():
                reclaimed += size
                tmp_removed.append(path.name)
        return GCResult(
            removed=tuple(removed), reclaimed_bytes=reclaimed, kept=kept,
            tmp_removed=tuple(tmp_removed),
        )
