"""Corrupt ``RV`` varint payloads raise :class:`EntropyDecodeError`:
no ``IndexError``, no ``struct.error``, no allocation sized by a
corrupt count."""

import struct
import tracemalloc

import numpy as np
import pytest

from repro.entropy import EntropyDecodeError
from repro.postprocess.coding import decode_ints, encode_ints


def varint_payload(n=500, seed=0):
    rng = np.random.default_rng(seed)
    values = (rng.standard_normal(n) * 1e6).astype(np.int64)
    values[0] = 10**12  # alphabet > 4096 forces the varint path
    data = encode_ints(values)
    assert data[:2] == b"RV"
    return values, data


@pytest.mark.parametrize("keep", [2, 4, 6, 7, 0.5, -1])
def test_truncated_payload_raises_typed_error(keep):
    _, data = varint_payload()
    cut = int(keep * len(data)) if isinstance(keep, float) else keep
    with pytest.raises(EntropyDecodeError):
        decode_ints(data[:cut])


def test_huge_count_is_rejected_before_allocating():
    _, data = varint_payload()
    forged = data[:2] + struct.pack("<I", 2**31) + data[6:]
    tracemalloc.start()
    try:
        with pytest.raises(EntropyDecodeError, match="values in"):
            decode_ints(forged)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("body", [
    b"\x80" * 10 + b"\x00",      # eleven bytes
    b"\xff" * 9 + b"\x02",       # tenth byte sets bit 64
], ids=["eleven-bytes", "bit-64"])
def test_overlong_varint_raises_typed_error(body):
    with pytest.raises(EntropyDecodeError, match="overflows"):
        decode_ints(b"RV" + struct.pack("<I", 1) + body)


def test_widest_varint_still_decodes():
    # zigzag(int64 min) = 2^64 - 1: nine full groups and one bit
    data = b"RV" + struct.pack("<I", 1) + b"\xff" * 9 + b"\x01"
    values, end = decode_ints(data)
    assert values.tolist() == [np.iinfo(np.int64).min]
    assert end == len(data)


def test_decode_stops_at_its_own_count():
    """Back-to-back payloads: the decoder takes exactly ``n`` varints
    and reports where the next payload starts."""
    values, data = varint_payload(n=50)
    tail = encode_ints(np.array([3, -4, 5]))
    out, end = decode_ints(data + tail)
    np.testing.assert_array_equal(out, values)
    assert end == len(data)
    back, stop = decode_ints(data + tail, end)
    assert back.tolist() == [3, -4, 5] and stop == len(data + tail)
