"""The one-step arithmetic coder against the frozen per-bit oracle.

Every arithmetic stream ever written must keep decoding, and every new
one must be byte-for-byte what the per-bit coder wrote, so these tests
compare bytes and decodes with :mod:`arith_oracle` (a verbatim copy of
that coder), including truncated and corrupted input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entropy import get_backend
from repro.entropy.coder import (EntropyDecodeError, decode_symbols,
                                 encode_symbols, pmf_to_cumulative)
from repro.entropy.rangecoder import (MAX_TOTAL, ArithmeticDecoder,
                                      ArithmeticEncoder)

from . import arith_oracle as oracle


def oracle_decode(data, cumulative, contexts):
    """The oracle's decode, or ``"error"`` where it raises."""
    try:
        return oracle.decode_symbols(data, cumulative, contexts)
    except ValueError:
        return "error"


def fused_decode(data, cumulative, contexts):
    try:
        return decode_symbols(data, cumulative, contexts).tolist()
    except EntropyDecodeError:
        return "error"


def assert_matches_oracle(symbols, cumulative, contexts):
    """Bytes and decode equal the oracle's, the decode round-trips,
    and every truncation decodes exactly as the oracle decodes it."""
    symbols = np.asarray(symbols, dtype=np.int64)
    contexts = np.asarray(contexts, dtype=np.int64)
    data = encode_symbols(symbols, cumulative, contexts)
    assert data == oracle.encode_symbols(symbols.tolist(), cumulative,
                                         contexts.tolist())
    assert fused_decode(data, cumulative, contexts) == symbols.tolist()
    for cut in sorted({0, 1, len(data) // 2, max(len(data) - 1, 0)}):
        assert (fused_decode(data[:cut], cumulative, contexts)
                == oracle_decode(data[:cut], cumulative, contexts))
    return data


@st.composite
def tables(draw, max_contexts=6):
    """Cumulative tables: alphabets 2-600, per-context totals mixed
    and up to ``MAX_TOTAL`` (drawn exactly often)."""
    alphabet = draw(st.integers(2, 600), label="alphabet")
    n_ctx = draw(st.integers(1, max_contexts), label="contexts")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_ctx):
        total = draw(st.one_of(st.just(MAX_TOTAL),
                               st.integers(alphabet, MAX_TOTAL)))
        skew = draw(st.sampled_from([0.5, 1.0, 4.0, 12.0]))
        pmf = rng.random((1, alphabet)) ** skew + 1e-9
        rows.append(pmf_to_cumulative(pmf, total=total)[0])
    return np.stack(rows)


@settings(max_examples=150, deadline=None)
@given(cum=tables(), data=st.data())
def test_bytes_and_decode_match_oracle(cum, data):
    n = data.draw(st.integers(0, 300), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    contexts = rng.integers(0, cum.shape[0], size=n)
    # draw each symbol from its own context's distribution
    u = rng.random(n) * cum[contexts, -1]
    symbols = (cum[contexts] <= u[:, None]).sum(axis=1) - 1
    assert_matches_oracle(symbols, cum, contexts)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("alphabet", [2, 600])
def test_empty_and_single_symbol_streams(n, alphabet):
    cum = pmf_to_cumulative(np.ones((1, alphabet)))
    data = assert_matches_oracle([alphabet - 1] * n, cum, [0] * n)
    if n == 0:
        assert data == b"\x40"  # termination bits only: 0 then 1


def symmetric_table(weight):
    """``[w, 2w, w]``: the middle symbol maps ``[0, FULL]`` onto the
    quarter-to-three-quarter interval, which one E3 step maps back, so
    a run of it is a pure run of pending bits."""
    return np.array([[0, weight, 3 * weight, 4 * weight]], dtype=np.int64)


@pytest.mark.parametrize("run", [63, 64, 65, 200, 1000])
@pytest.mark.parametrize("last", [0, 2])
def test_pending_runs_longer_than_the_flush(run, last):
    """Pending runs past 64 bits cross the accumulator flush, released
    by a low or a high symbol (zeros or ones follow the first bit)."""
    cum = symmetric_table(MAX_TOTAL // 4)
    symbols = [1] * run + [last, 1, last]
    assert_matches_oracle(symbols, cum, [0] * len(symbols))


def test_pending_run_released_only_by_finish():
    cum = symmetric_table(4)
    data = assert_matches_oracle([1] * 150, cum, [0] * 150)
    # 0, then 151 ones: 152 bits, no padding
    assert data == b"\x7f" + b"\xff" * 18


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_e3_heavy_streams_straddling_half(data):
    """Intervals straddling HALF: runs of the (nearly) centered middle
    symbol interleaved with symbols that force emission."""
    jitter = data.draw(st.integers(0, 3), label="jitter")
    weight = data.draw(st.integers(1, (MAX_TOTAL - jitter) // 4),
                       label="weight")
    cum = np.array([[0, weight, 3 * weight + jitter,
                     4 * weight + jitter]], dtype=np.int64)
    runs = data.draw(st.lists(st.tuples(st.integers(0, 150),
                                        st.sampled_from([0, 2])),
                              max_size=6), label="runs")
    symbols = [s for run, end in runs for s in [1] * run + [end]]
    assert_matches_oracle(symbols, cum, [0] * len(symbols))


@settings(max_examples=100, deadline=None)
@given(cum=tables(max_contexts=3),
       payload=st.binary(min_size=0, max_size=64),
       n=st.integers(0, 200))
def test_arbitrary_bytes_decode_as_the_oracle_decodes(cum, payload, n):
    """Garbage in decodes to the oracle's garbage, or both raise."""
    contexts = np.arange(n) % cum.shape[0]
    assert (fused_decode(payload, cum, contexts)
            == oracle_decode(payload, cum, contexts))


@settings(max_examples=50, deadline=None)
@given(cum=tables(max_contexts=1), data=st.data())
def test_per_symbol_api_matches_oracle(cum, data):
    """``encode``/``decode_target``/``advance`` keep the per-symbol
    contract and delegate to the same coding loops."""
    row = cum[0].tolist()
    symbols = data.draw(st.lists(st.integers(0, len(row) - 2),
                                 max_size=80), label="symbols")
    enc, ref = ArithmeticEncoder(), oracle.ArithmeticEncoder()
    for s in symbols:
        enc.encode(row[s], row[s + 1], row[-1])
        ref.encode(row[s], row[s + 1], row[-1])
    stream = enc.finish()
    assert stream == ref.finish()
    dec, ref_dec = ArithmeticDecoder(stream), oracle.ArithmeticDecoder(
        stream)
    for s in symbols:
        target = dec.decode_target(row[-1])
        assert target == ref_dec.decode_target(row[-1])
        assert int(np.searchsorted(row, target, side="right")) - 1 == s
        dec.advance(row[s], row[s + 1], row[-1])
        ref_dec.advance(row[s], row[s + 1], row[-1])


def test_advance_rejects_an_interval_missing_the_target():
    dec = ArithmeticDecoder(b"\xff" * 8)
    assert dec.decode_target(4) == 3
    with pytest.raises(ValueError, match="does not hold"):
        dec.advance(0, 1, 4)


def test_invalid_interval_leaves_the_encoder_untouched():
    enc = ArithmeticEncoder()
    with pytest.raises(ValueError, match="invalid cumulative range"):
        enc.encode_array([0, 3], [1, 3], [4, 4])
    assert enc.finish() == ArithmeticEncoder().finish()


# ----------------------------------------------------------------------
# corrupted streams: a typed error or different data, never IndexError
# ----------------------------------------------------------------------
def test_target_out_of_range_is_a_typed_error():
    dead = np.zeros((1, 3), dtype=np.int64)  # every row total is zero
    with pytest.raises(EntropyDecodeError, match="target out of range"):
        decode_symbols(b"\x12\x34", dead, np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError):  # still the historical type
        ArithmeticDecoder(b"").decode_target(0)


@pytest.mark.parametrize("where", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("flip", [0x01, 0x80, 0xFF])
def test_corrupt_byte_gives_typed_error_or_different_array(where, flip):
    rng = np.random.default_rng(7)
    cum = pmf_to_cumulative(rng.random((4, 33)) ** 3)
    contexts = rng.integers(0, 4, size=2000)
    u = rng.random(contexts.size) * cum[contexts, -1]
    symbols = (cum[contexts] <= u[:, None]).sum(axis=1) - 1
    arith = get_backend("arithmetic")
    data = bytearray(arith.encode(symbols, cum, contexts))
    data[int(where * len(data))] ^= flip
    try:
        out = arith.decode(bytes(data), cum, contexts)
    except EntropyDecodeError:
        return
    assert out.shape == symbols.shape
    assert not np.array_equal(out, symbols)
