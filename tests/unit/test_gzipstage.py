"""Unit tests for the gzip stage: ``put_section`` / ``take_section`` over
``deflate`` at ``best_speed``."""

from repro.codec.stages import put_section, take_section
from repro.io.container import Container
from repro.lossless import LZ77Encoder, deflate, inflate


def _ratio(data: bytes, encoder: LZ77Encoder) -> float:
    blob = deflate(data, encoder)
    assert inflate(blob) == data
    return len(data) / len(blob)


class TestGzipStage:
    def test_best_compression_not_worse_on_structured(self):
        data = b"0123456789abcdef" * 2000
        fast = _ratio(data, LZ77Encoder.best_speed())
        best = _ratio(data, LZ77Encoder.best_compression())
        assert best >= fast * 0.99

    def test_empty_roundtrip(self):
        c = Container(header={})
        assert put_section(c, "blob", b"", "blob_gz") == 0
        parsed = Container.from_bytes(c.to_bytes())
        assert parsed.header["blob_gz"] is False
        assert take_section(parsed, "blob", "blob_gz") == b""
