"""From-scratch DEFLATE-style lossless codec — the "gzip" stage.

Both GhostSZ and waveSZ finish with the Xilinx FPGA gzip IP (paper §4.1);
SZ-1.4 finishes with gzip in ``best_speed`` mode.  This package provides the
equivalent substrate, built from scratch:

* :mod:`repro.lossless.lz77` — hash-chain LZ77 matcher with zlib-like
  ``best_speed`` / ``best_compression`` effort levels,
* :mod:`repro.lossless.deflate` — a DEFLATE-style container combining the
  LZ77 token stream with canonical Huffman coding of literal/length and
  distance alphabets.

The compressors run it at ``best_speed`` through
:func:`repro.codec.stages.put_section` / :func:`~repro.codec.stages.take_section`.
"""

from .deflate import deflate, inflate
from .lz77 import LZ77Encoder, TokenStream

__all__ = [
    "deflate",
    "inflate",
    "LZ77Encoder",
    "TokenStream",
]
