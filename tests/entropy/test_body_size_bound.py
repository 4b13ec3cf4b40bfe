"""Soundness of the arithmetic coder's proven body-size lower bound.

:func:`body_size_bound` may only ever under-state
``len(ArithmeticEncoder.finish())``: callers skip the coding loop
when the bound already loses, so one over-statement changes bytes.
The tables here push on every term of the proof: frequency-one
symbols at ``total == MAX_TOTAL`` (the largest per-symbol information
and finite-precision excess), E3-heavy ``[w, 2w, w]`` rows (long
pending runs) and streams up to ~50k symbols.

The bound must also stay useful: within a few bytes of the body, or
the varint and FAZ shortcuts never fire.  Flipping the sign of the
float margin fails the soundness tests; dropping the symbol counts
(each distinct symbol once) fails the tightness test.  The
finite-precision term ``E`` is below 1e-4 bits per symbol, so no
stream short of ~10^5 adversarial symbols can show it missing: it is
there for the proof, not for these tests.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entropy import rangecoder
from repro.entropy.coder import encode_symbols, pmf_to_cumulative
from repro.entropy.rangecoder import MAX_TOTAL, body_size_bound


@st.composite
def rows(draw):
    """One cumulative row of one of three kinds."""
    kind = draw(st.sampled_from(["skewed", "ones", "e3"]), label="kind")
    if kind == "e3":
        jitter = draw(st.integers(0, 3), label="jitter")
        w = draw(st.integers(1, (MAX_TOTAL - jitter) // 4), label="w")
        return np.array([0, w, 3 * w + jitter, 4 * w + jitter],
                        dtype=np.int64)
    alphabet = draw(st.integers(2, 600), label="alphabet")
    total = draw(st.one_of(st.just(MAX_TOTAL),
                           st.integers(alphabet, MAX_TOTAL)),
                 label="total")
    if kind == "ones":
        # every symbol but one has frequency 1
        freqs = np.ones(alphabet, dtype=np.int64)
        freqs[draw(st.integers(0, alphabet - 1))] += total - alphabet
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        skew = draw(st.sampled_from([0.5, 1.0, 4.0, 12.0]))
        freqs = np.diff(pmf_to_cumulative(
            rng.random((1, alphabet)) ** skew + 1e-9, total=total)[0])
    return np.concatenate([[0], np.cumsum(freqs)])


def draw_symbols(data, row):
    """Symbols from the row's own distribution, uniform over the
    alphabet (rare symbols weigh in), or only its rarest symbol."""
    n = data.draw(st.one_of(st.integers(0, 300), st.integers(1, 50_000)),
                  label="n")
    mode = data.draw(st.sampled_from(["model", "uniform", "rarest"]),
                     label="mode")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    freqs = np.diff(row)
    if mode == "rarest":
        return np.full(n, int(np.argmin(freqs)), dtype=np.int64)
    if mode == "uniform":
        return rng.integers(0, freqs.size, size=n)
    return np.searchsorted(row, rng.random(n) * row[-1], side="right") - 1


def body_and_bound(row, symbols):
    freqs = np.diff(row)
    body = encode_symbols(symbols, row[None, :],
                          np.zeros(symbols.size, dtype=np.int64))
    counts = np.bincount(symbols, minlength=freqs.size)
    return body, body_size_bound(freqs, row[-1], counts)


@settings(max_examples=120, deadline=None)
@given(row=rows(), data=st.data())
def test_body_is_never_shorter_than_the_bound(row, data):
    symbols = draw_symbols(data, row)
    body, bound = body_and_bound(row, symbols)
    assert len(body) >= bound
    # the proof, not the float margin, carries the bound
    with mock.patch.object(rangecoder, "_BOUND_MARGIN_BITS", 0):
        assert len(body) >= body_and_bound(row, symbols)[1]


@settings(max_examples=120, deadline=None)
@given(row=rows(), data=st.data())
def test_bound_is_within_a_few_bytes_of_the_body(row, data):
    body, bound = body_and_bound(row, draw_symbols(data, row))
    assert len(body) - bound <= 4


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_per_symbol_form_bounds_mixed_context_streams(data):
    """Per-symbol ``freq``/``total`` arrays (count one each) bound a
    stream coded under several contexts with different totals."""
    table = np.stack([data.draw(rows().filter(lambda r: r.size == 4))
                      for _ in range(data.draw(st.integers(1, 4)))])
    n = data.draw(st.integers(0, 3000), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    contexts = rng.integers(0, table.shape[0], size=n)
    symbols = rng.integers(0, 3, size=n)
    body = encode_symbols(symbols, table, contexts)
    freqs = table[contexts, symbols + 1] - table[contexts, symbols]
    assert len(body) >= body_size_bound(freqs, table[contexts, -1])


@pytest.mark.parametrize("total", [2, 3, MAX_TOTAL])
def test_empty_stream_bound_is_exact(total):
    """Termination alone is two bits: one byte, which the bound
    claims."""
    body, bound = body_and_bound(np.array([0, 1, total]),
                                 np.zeros(0, dtype=np.int64))
    assert bound == len(body) == 1
