"""The zigzag-varint fallback of :func:`~repro.postprocess.coding.
encode_ints`: full int64 range, exact sizing, and the wire layout."""

import struct

import numpy as np
import pytest

from repro.entropy import using_backend
from repro.postprocess.coding import (_VARINT_HEADER, _varint_lengths,
                                      _zigzag, decode_ints, encode_ints)

I64 = np.iinfo(np.int64)


def reference_varints(values):
    """The ``RV`` layout written one byte at a time, from Python ints."""
    out = bytearray(b"RV") + struct.pack("<I", len(values))
    for v in values:
        u = 2 * v if v >= 0 else -2 * v - 1
        while True:
            byte, u = u & 0x7F, u >> 7
            out.append(byte | 0x80 if u else byte)
            if not u:
                break
    return bytes(out)


def roundtrip(values):
    values = np.asarray(values, dtype=np.int64)
    data = encode_ints(values)
    back, end = decode_ints(data)
    assert end == len(data)
    assert back.dtype == np.int64
    np.testing.assert_array_equal(back, values)
    return data


def test_value_past_2_62_no_longer_wraps():
    back, _ = decode_ints(encode_ints(np.array([2**62 + 5, -3, 0, 7])))
    assert back.tolist() == [2**62 + 5, -3, 0, 7]


@pytest.mark.parametrize("values", [
    [I64.min, I64.max],
    [I64.min, -1, 0, 1, I64.max],
    [I64.min] * 5,
    [I64.max] * 5,
    [I64.min + 1, I64.max - 1, 2**62, -2**62 - 1, 2**63 - 2],
], ids=["extremes", "extremes+zero", "all-min", "all-max", "near"])
def test_int64_extremes_roundtrip(values):
    roundtrip(values)


def test_full_int64_range_roundtrips():
    rng = np.random.default_rng(0)
    values = rng.integers(I64.min, I64.max, size=4000, dtype=np.int64,
                          endpoint=True)
    values[:2] = I64.min, I64.max
    data = roundtrip(values)
    assert data[:2] == b"RV"
    # both sides of every varint length boundary (zigzag u = 2^7k)
    us = [(1 << (7 * k)) + d for k in range(1, 10) for d in (-1, 0)]
    roundtrip([u >> 1 if u % 2 == 0 else -(u >> 1) - 1 for u in us])


def test_zigzag_matches_definition_on_whole_range():
    vals = [I64.min, I64.min + 1, -2**62 - 1, -1, 0, 1, 2**62, I64.max]
    u = _zigzag(np.array(vals, dtype=np.int64))
    assert u.dtype == np.uint64
    assert u.tolist() == [2 * v if v >= 0 else -2 * v - 1 for v in vals]


@pytest.mark.parametrize("seed", range(4))
def test_varint_bytes_match_reference_layout(seed):
    rng = np.random.default_rng(seed)
    values = (rng.standard_normal(300) * 10.0 ** rng.integers(
        0, 18, size=300)).astype(np.int64)
    values[0] = 10**9  # alphabet > 4096 forces the varint path
    data = encode_ints(values)
    assert data == reference_varints(values.tolist())


@pytest.mark.parametrize("backend", ["arithmetic", "trans"])
@pytest.mark.parametrize("values", [
    [5], [0, 1], [-3, 200, 7], list(range(-40, 40)),
    [1, 2, 3, 4] * 30,
], ids=["one", "two", "three", "ramp", "repeat"])
def test_smaller_representation_is_kept(values, backend):
    """The fallback is chosen exactly when its size is not larger."""
    values = np.array(values, dtype=np.int64)
    with using_backend(backend):
        data = encode_ints(values)
    varint = reference_varints(values.tolist())
    assert len(data) <= len(varint)
    assert (data == varint) == (data[:2] == b"RV")
    roundtrip(values)


def test_varint_lengths_are_exact():
    rng = np.random.default_rng(3)
    values = rng.integers(I64.min, I64.max, size=500, dtype=np.int64)
    lens = _varint_lengths(_zigzag(values))
    assert _VARINT_HEADER + int(lens.sum()) == \
        len(reference_varints(values.tolist()))
