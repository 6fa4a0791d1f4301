#!/usr/bin/env python
"""Tiled archive with random access — the multi-lane / OpenMP decomposition.

A post-analysis tool rarely needs a whole snapshot: it wants one slab.
This example compresses a Hurricane-like temperature volume as independent
bands (the same decomposition Figure 8's parallelism axis uses — one band
per FPGA lane or OpenMP thread), then reconstructs a single band without
touching the rest, and quantifies the seam overhead of the decomposition.

Run:  python examples/random_access_archive.py
"""

import numpy as np

from repro import SZ14Compressor, load_field
from repro.parallel import decompress_tile, tile_compress, tile_decompress


def main() -> None:
    x = load_field("Hurricane", "TCf48")
    comp = SZ14Compressor()
    print(f"field: Hurricane/TCf48 {x.shape} ({x.nbytes} bytes)")

    mono = comp.compress(x, 1e-3, "vr_rel")
    print(f"monolithic: ratio {mono.stats.ratio:.1f}x")

    print(f"\n{'bands':>6} {'ratio':>7} {'vs mono':>9}   per-band ratios")
    for n in (2, 4, 8):
        res = tile_compress(comp, x, 1e-3, "vr_rel", n_tiles=n)
        ratio = res.stats.ratio
        per_band = " ".join(f"{r:.1f}" for r in res.meta["tile_ratios"])
        print(f"{n:>6} {ratio:>7.1f} "
              f"{100 * ratio / mono.stats.ratio:>8.1f}%   {per_band}")

    # Random access: reconstruct only band 2 of 4.
    res = tile_compress(comp, x, 1e-3, "vr_rel", n_tiles=4)
    band = decompress_tile(comp, res.payload, 2)
    full = tile_decompress(comp, res.payload)
    lo = 2 * x.shape[0] // 4
    assert (band == full[lo : lo + band.shape[0]]).all()
    vr = float(x.max() - x.min())
    assert np.abs(full.astype(np.float64) - x).max() <= 1e-3 * vr
    print(f"\nrandom access: band 2/4 = slab {band.shape} reconstructed "
          f"standalone ({band.nbytes} of {x.nbytes} bytes touched)")
    print("error bound verified on the full tiled reconstruction.")


if __name__ == "__main__":
    main()
