"""``encoded_size_bound`` and the sized ``encode_ints``.

``encode_ints`` returns varints without running the entropy coder when
the histogram payload's proven minimum already loses.  Its bytes must
be exactly those of always coding the body and then keeping the
smaller form, the test-local oracle below.  The decoder must reject a
payload cut at any offset with :class:`EntropyDecodeError`.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entropy import EntropyDecodeError, get_backend
from repro.entropy.coder import pmf_to_cumulative
from repro.postprocess.coding import (decode_ints, encode_ints,
                                      encoded_size_bound)

BACKENDS = ["arithmetic", "rans", "vrans", "trans"]


def varints(values):
    """``RV`` payload, one value at a time."""
    out = bytearray(b"RV" + struct.pack("<I", len(values)))
    for v in values.tolist():
        u = 2 * v if v >= 0 else -2 * v - 1
        while u >= 0x80:
            out.append(0x80 | (u & 0x7F))
            u >>= 7
        out.append(u)
    return bytes(out)


def always_code_oracle(values, backend):
    """Code the histogram payload whenever it is allowed, then keep
    the smaller form (ties keep the histogram)."""
    values = np.asarray(values, dtype=np.int64).ravel()
    if not values.size:
        return b"RI" + struct.pack("<IqiI", 0, 0, 0, 0)
    coder = get_backend(backend)
    vmin = int(values.min())
    alphabet = int(values.max()) - vmin + 1
    plain = varints(values)
    if alphabet > 4096:
        return plain
    magic = (b"RI" if coder.name == "arithmetic"
             else b"RT" + bytes([coder.tag]))
    hist = np.bincount(values - vmin, minlength=alphabet)
    body = b""
    if alphabet > 1:
        body = coder.encode(values - vmin,
                            pmf_to_cumulative(hist[None, :] * 1.0),
                            np.zeros(values.size, dtype=np.int64))
    coded = (magic + struct.pack("<IqiI", values.size, vmin, alphabet,
                                 len(body))
             + hist.astype("<u4").tobytes() + body)
    return coded if len(coded) <= len(plain) else plain


@st.composite
def int_arrays(draw):
    """Small and wide alphabets, skewed and flat, around the point
    where varints and the histogram payload trade places."""
    n = draw(st.one_of(st.integers(0, 40), st.integers(0, 3000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["laplace", "uniform", "constant",
                                 "sparse", "wide"]))
    scale = draw(st.sampled_from([0.2, 1.0, 4.0, 60.0, 3000.0]))
    offset = draw(st.sampled_from([0, -7, 300, -(2**40)]))
    if kind == "laplace":
        values = np.rint(rng.laplace(size=n) * scale)
    elif kind == "uniform":
        values = rng.integers(-int(scale), int(scale) + 1, size=n)
    elif kind == "constant":
        values = np.zeros(n)
    elif kind == "sparse":
        values = np.where(rng.random(n) < 0.05,
                          np.rint(rng.standard_normal(n) * scale), 0)
    else:
        values = rng.integers(-(2**50), 2**50, size=n)
    return np.asarray(values, dtype=np.int64) + offset


@settings(max_examples=200, deadline=None)
@given(values=int_arrays(), backend=st.sampled_from(BACKENDS))
def test_encode_ints_matches_always_code_oracle(values, backend):
    payload = encode_ints(values, backend)
    assert payload == always_code_oracle(values, backend)
    assert encoded_size_bound(values, backend) <= len(payload)
    out, end = decode_ints(payload)
    np.testing.assert_array_equal(out, values)
    assert end == len(payload)


@pytest.mark.parametrize("backend", BACKENDS)
def test_bound_is_exact_when_the_header_decides(backend):
    cases = [np.zeros(0, dtype=np.int64),          # empty
             np.full(20, 3),                      # one symbol, a tie
             np.full(500, -9),                    # one symbol
             np.arange(5000),                     # alphabet > 4096
             np.array([0, 4000])]                 # varints < header
    for values in cases:
        assert (encoded_size_bound(values, backend)
                == len(encode_ints(values, backend)))


def test_one_symbol_tie_keeps_the_histogram():
    """26 bytes either way: the histogram payload is kept."""
    values = np.full(20, 3)
    assert len(varints(values)) == 26
    assert encode_ints(values)[:2] == b"RI"


@pytest.mark.parametrize("backend", BACKENDS)
def test_non_arithmetic_bodies_count_as_zero(backend):
    values = np.arange(600) % 7
    payload = encode_ints(values, backend)
    header = (2 if backend == "arithmetic" else 3) + 20 + 4 * 7
    bound = encoded_size_bound(values, backend)
    if backend == "arithmetic":
        assert header < bound <= len(payload)
    else:
        assert bound == header < len(payload)


def test_coding_is_skipped_when_the_bound_loses(monkeypatch):
    """A flat 30-symbol alphabet: the histogram header alone beats the
    varints, header plus the body's bound does not, so no body is
    coded."""
    values = np.random.default_rng(0).integers(-15, 15, size=200)
    assert 2 + 20 + 4 * 30 < len(varints(values))
    calls = []
    monkeypatch.setattr(type(get_backend("arithmetic")), "encode",
                        lambda self, *a: calls.append(a) or b"")
    assert encode_ints(values) == varints(values)
    assert calls == []


# ----------------------------------------------------------------------
# truncated and forged payloads raise EntropyDecodeError
# ----------------------------------------------------------------------
def payloads():
    yield "RI", encode_ints(np.arange(100) % 7)
    for backend in BACKENDS[1:]:
        yield f"RT-{backend}", encode_ints(np.arange(100) % 7, backend)
    yield "RV", encode_ints(np.array([0, 4000, -3]))
    yield "one-symbol", encode_ints(np.full(50, 2))


@pytest.mark.parametrize("name,payload", list(payloads()),
                         ids=[name for name, _ in payloads()])
def test_cut_at_every_offset_raises_typed_error(name, payload):
    np.testing.assert_array_equal(decode_ints(payload)[0],
                                  decode_ints(payload + b"junk")[0])
    for cut in range(len(payload)):
        with pytest.raises(EntropyDecodeError):
            decode_ints(payload[:cut])


def forged(field, value):
    """``encode_ints(arange(100) % 7)`` with one header field
    replaced."""
    payload = bytearray(encode_ints(np.arange(100) % 7))
    fields = dict(zip(["n", "vmin", "alphabet", "body_len"],
                      struct.unpack_from("<IqiI", payload, 2)))
    fields[field] = value
    struct.pack_into("<IqiI", payload, 2, *fields.values())
    return bytes(payload)


@pytest.mark.parametrize("data,match", [
    (b"XX" + bytes(30), "bad magic"),
    (b"RT\xee" + bytes(30), "unknown entropy-backend tag"),
    (forged("alphabet", 2**31 - 1), "alphabet"),
    (forged("alphabet", -1), "alphabet"),
    (forged("alphabet", 4000), "truncated histogram"),
    (forged("body_len", 2**32 - 1), "truncated body"),
    (forged("n", 99), "histogram counts"),
], ids=["magic", "tag", "huge-alphabet", "negative-alphabet",
        "histogram", "body", "count"])
def test_forged_header_raises_typed_error(data, match):
    with pytest.raises(EntropyDecodeError, match=match):
        decode_ints(data)
