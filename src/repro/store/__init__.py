"""Persistent compressed array store: tile objects, manifests, cache.

``repro.store`` keeps scientific fields on disk in compressed form and
reads them back whole or by slice, decoding only the tiles a request
touches:

    from repro.store import ArrayStore

    store = ArrayStore("snapshots/")
    store.put("run42.TS", field, codec="sz14", eb=1e-3, n_tiles=8)
    full = store.read("run42.TS").data                 # bit-exact
    part = store.read_slice("run42.TS", (slice(10, 20),)).data

Objects are content-addressed (``objects/<sha256>``), so identical tiles
across fields and versions are stored once; ``gc()`` reclaims objects no
manifest references.  Decoded tiles flow through a byte-budgeted LRU
:class:`TileCache` whose counters export as ``store.cache.*`` gauges on
a :class:`~repro.service.metrics.MetricsRegistry`.  Damaged tiles are
detected by content digest + container-v2 checksums; ``strict=False``
reads skip them and report the lost tile indices.
"""

from .cache import DEFAULT_CACHE_BYTES, TileCache
from .fsck import FsckFinding, FsckReport, run_fsck
from .store import (
    JOURNAL_FORMAT,
    MANIFEST_FORMAT,
    ArrayStore,
    GCResult,
    PutResult,
    RecoveryResult,
    StoreReadResult,
    TileDamage,
    TileStore,
    assemble_tiles,
    compress_field_tiles,
    decode_tile_blob,
    manifest_digest,
)

__all__ = [
    "TileStore",
    "ArrayStore",
    "assemble_tiles",
    "compress_field_tiles",
    "decode_tile_blob",
    "TileCache",
    "DEFAULT_CACHE_BYTES",
    "PutResult",
    "StoreReadResult",
    "TileDamage",
    "GCResult",
    "RecoveryResult",
    "FsckFinding",
    "FsckReport",
    "run_fsck",
    "MANIFEST_FORMAT",
    "JOURNAL_FORMAT",
    "manifest_digest",
]
