"""The wire's field codec against the container's value streams.

``encode_field`` hands out a view of the caller's array and
``decode_field`` wraps the buffer a frame was received into; neither may
change a byte.  Both are pinned here against ``values_to_bytes`` /
``values_from_bytes``, the copying pair they replaced on the wire, for
the layouts a caller can hand in.
"""

import numpy as np
import pytest

from repro.service import wire
from repro.streams import values_from_bytes, values_to_bytes

RNG = np.random.default_rng(4302)


def _cases():
    base = RNG.normal(size=(12, 10, 6))
    for dtype in ("float32", "float64"):
        c = base.astype(dtype)
        yield f"{dtype}-c", c
        yield f"{dtype}-fortran", np.asfortranarray(c)
        yield f"{dtype}-strided", c[::2, 1::3]
        yield f"{dtype}-transposed", c.T
        yield f"{dtype}-big-endian", c.astype(np.dtype(dtype).newbyteorder(">"))
        yield f"{dtype}-big-endian-strided", c.astype(
            np.dtype(dtype).newbyteorder(">"))[1::2]
        yield f"{dtype}-empty", np.empty((0, 7), dtype)
        yield f"{dtype}-0d", np.asarray(c[1, 2, 3])


CASES = dict(_cases())


def _header(data):
    return {"shape": list(data.shape), "dtype": str(data.dtype)}


def _received(body):
    """The buffer ``recv_frame`` would hand back for ``body``."""
    return bytearray(bytes(body))


@pytest.mark.parametrize("case", sorted(CASES))
class TestParity:
    def test_encode_matches_values_to_bytes(self, case):
        data = CASES[case]
        body = wire.encode_field(data)
        assert len(body) == data.nbytes
        assert bytes(body) == values_to_bytes(data)

    def test_decode_matches_values_from_bytes(self, case):
        data = CASES[case]
        raw = values_to_bytes(data)
        for body in (_received(raw), raw):  # as received, and as bytes
            back = wire.decode_field(_header(data), body)
            want = values_from_bytes(raw, data.size, data.dtype).reshape(data.shape)
            assert back.dtype == want.dtype and back.shape == want.shape
            assert back.tobytes() == want.tobytes()
            assert back.flags.c_contiguous and back.flags.writeable


class TestBuffers:
    def test_encode_is_a_view_of_a_wire_ordered_field(self):
        data = RNG.normal(size=(30, 40)).astype("<f4")
        body = wire.encode_field(data)
        assert np.shares_memory(np.frombuffer(body, np.uint8), data)

    def test_encode_does_not_touch_its_input(self):
        data = CASES["float64-big-endian-strided"]
        before = data.copy()
        wire.encode_field(data)
        assert data.dtype == before.dtype
        np.testing.assert_array_equal(data, before)

    def test_decode_wraps_a_received_buffer(self):
        data = RNG.normal(size=(30, 40)).astype(np.float32)
        buf = _received(wire.encode_field(data))
        back = wire.decode_field(_header(data), buf)
        assert np.shares_memory(back, np.frombuffer(buf, np.uint8))
        np.testing.assert_array_equal(back, data)

    def test_decoded_arrays_are_writable_and_do_not_alias(self):
        data = RNG.normal(size=(30, 40)).astype(np.float32)
        raw = bytes(wire.encode_field(data))
        one = wire.decode_field(_header(data), _received(raw))
        two = wire.decode_field(_header(data), _received(raw))
        from_bytes = wire.decode_field(_header(data), raw)
        for a, b in ((one, two), (one, from_bytes), (two, from_bytes)):
            assert not np.shares_memory(a, b)
        one += 1.0
        from_bytes[0, 0] = 0.0
        np.testing.assert_array_equal(two, data)
        assert raw == bytes(wire.encode_field(data))  # bytes never written
