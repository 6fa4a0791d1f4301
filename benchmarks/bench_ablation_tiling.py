"""Ablation — band decomposition cost (the OpenMP / multi-lane trade).

Figure 8 scales SZ with OpenMP threads and waveSZ with FPGA lanes; both
decompose the field into independent bands.  This bench measures what
that independence costs in ratio (lost prediction context at seams) as
the band count grows, and demonstrates the random-access payoff.
"""

from common import emit, fmt_row

from repro import SZ14Compressor, load_field
from repro.parallel import decompress_tile, tile_compress


def test_ablation_tiling(benchmark):
    x = load_field("Hurricane", "TCf48")
    comp = SZ14Compressor()

    def run():
        mono = comp.compress(x, 1e-3, "vr_rel").stats.ratio
        rows = [(1, mono)]
        for n in (2, 4, 8):
            tiled = tile_compress(comp, x, 1e-3, n_tiles=n)
            rows.append((n, tiled.stats.ratio))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    widths = [7, 8, 13]
    lines = [fmt_row(["bands", "ratio", "vs monolithic"], widths)]
    mono = rows[0][1]
    for n, r in rows:
        lines.append(fmt_row([n, r, f"{100 * r / mono:.1f}%"], widths))

    # Seam overhead grows with band count but stays modest.
    ratios = [r for _, r in rows]
    assert ratios[-1] <= ratios[0] * 1.02
    assert ratios[-1] > 0.6 * ratios[0]

    # Random access: one band decompresses standalone.
    res = tile_compress(comp, x, 1e-3, n_tiles=4)
    band = decompress_tile(comp, res.payload, 2)
    assert band.shape[0] == x.shape[0] // 4
    lines.append("")
    lines.append(f"random access: band 2 of 4 reconstructed standalone "
                 f"({band.nbytes} bytes of field)")
    emit("ablation_tiling", lines)
