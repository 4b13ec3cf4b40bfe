"""Unit tests for the lane-vectorized interleaved rANS coder."""

import hashlib

import numpy as np
import pytest

from repro.entropy.coder import pmf_to_cumulative
from repro.entropy.rans import encode_symbols_rans
from repro.entropy.vrans import (MAX_LANES, decode_symbols_vrans,
                                 encode_symbols_vrans, lane_count)


def _case(seed, n, n_ctx=5, alphabet=17, total=None):
    rng = np.random.default_rng(seed)
    pmf = rng.random((n_ctx, alphabet)) + 0.01
    tables = (pmf_to_cumulative(pmf) if total is None
              else pmf_to_cumulative(pmf, total=total))
    contexts = rng.integers(0, n_ctx, size=n)
    symbols = rng.integers(0, alphabet, size=n)
    return symbols, tables, contexts


class TestVransRoundtrip:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 63, 64, 65, 511, 512,
                                   513, 1000, 4096, 5000])
    def test_roundtrip_across_lane_boundaries(self, n):
        symbols, tables, contexts = _case(n, n)
        data = encode_symbols_vrans(symbols, tables, contexts)
        out = decode_symbols_vrans(data, tables, contexts)
        np.testing.assert_array_equal(out, symbols)

    @pytest.mark.parametrize("lanes", [1, 2, 3, 8, 64, MAX_LANES])
    def test_explicit_lane_width(self, lanes):
        symbols, tables, contexts = _case(1, 700)
        data = encode_symbols_vrans(symbols, tables, contexts,
                                    lanes=lanes)
        assert data[0] == lanes  # header records the width
        out = decode_symbols_vrans(data, tables, contexts)
        np.testing.assert_array_equal(out, symbols)

    def test_non_power_of_two_totals(self):
        # exercises the vectorized b-uniqueness rescale on both sides
        symbols, tables, contexts = _case(2, 800, total=1000)
        data = encode_symbols_vrans(symbols, tables, contexts)
        out = decode_symbols_vrans(data, tables, contexts)
        np.testing.assert_array_equal(out, symbols)

    def test_single_symbol_alphabet(self):
        tables = pmf_to_cumulative(np.ones((3, 1)))
        contexts = np.random.default_rng(3).integers(0, 3, size=200)
        symbols = np.zeros(200, dtype=np.int64)
        data = encode_symbols_vrans(symbols, tables, contexts)
        out = decode_symbols_vrans(data, tables, contexts)
        np.testing.assert_array_equal(out, symbols)

    def test_mixed_per_row_totals_fallback(self):
        # rows with different totals cannot use the flattened
        # searchsorted key; the masked-comparison fallback must agree
        tables = np.array([[0, 1, 3], [0, 2, 4], [0, 3, 7]],
                          dtype=np.int64)
        rng = np.random.default_rng(4)
        contexts = rng.integers(0, 3, size=600)
        symbols = rng.integers(0, 2, size=600)
        data = encode_symbols_vrans(symbols, tables, contexts)
        out = decode_symbols_vrans(data, tables, contexts)
        np.testing.assert_array_equal(out, symbols)

    def test_empty_stream(self):
        _, tables, _ = _case(5, 10)
        empty = np.zeros(0, dtype=np.int64)
        data = encode_symbols_vrans(empty, tables, empty)
        out = decode_symbols_vrans(data, tables, empty)
        assert out.size == 0

    def test_size_close_to_scalar_rans(self):
        """Lane interleaving costs only the per-lane state header."""
        symbols, tables, contexts = _case(6, 4000)
        v = encode_symbols_vrans(symbols, tables, contexts)
        r = encode_symbols_rans(symbols, tables, contexts)
        lanes = v[0]
        assert len(v) <= len(r) + 1 + 8 * lanes + 4 * lanes

    def test_lane_count_is_deterministic(self):
        assert lane_count(10) == 1
        assert lane_count(1000) == 7
        assert lane_count(100000) == 64
        # the state header stays a bounded fraction of the payload
        assert all(8 * lane_count(n) <= max(9, n // 12)
                   for n in range(0, 20000, 37))


class TestVransValidation:
    def test_rejects_out_of_range_symbols(self):
        symbols, tables, contexts = _case(7, 10)
        bad = symbols.copy()
        bad[0] = tables.shape[1]  # >= alphabet
        with pytest.raises(ValueError):
            encode_symbols_vrans(bad, tables, contexts)

    def test_rejects_bad_contexts(self):
        symbols, tables, contexts = _case(8, 10)
        for bad_value in (-1, tables.shape[0]):
            bad = contexts.copy()
            bad[3] = bad_value
            with pytest.raises(ValueError, match="context id"):
                encode_symbols_vrans(symbols, tables, bad)
            with pytest.raises(ValueError, match="context id"):
                decode_symbols_vrans(b"\x01" + b"\x00" * 8, tables, bad)

    def test_rejects_length_mismatch(self):
        symbols, tables, contexts = _case(9, 10)
        with pytest.raises(ValueError):
            encode_symbols_vrans(symbols[:5], tables, contexts)

    def test_rejects_bad_lane_request(self):
        symbols, tables, contexts = _case(10, 10)
        for lanes in (0, MAX_LANES + 1):
            with pytest.raises(ValueError):
                encode_symbols_vrans(symbols, tables, contexts,
                                     lanes=lanes)


class TestVransCorruption:
    def _encoded(self, n=900):
        symbols, tables, contexts = _case(11, n)
        data = encode_symbols_vrans(symbols, tables, contexts)
        return symbols, tables, contexts, data

    def test_truncated_words_raise(self):
        _, tables, contexts, data = self._encoded()
        with pytest.raises(ValueError, match="corrupted vrans"):
            decode_symbols_vrans(data[:-4], tables, contexts)

    def test_trailing_words_raise(self):
        _, tables, contexts, data = self._encoded()
        with pytest.raises(ValueError, match="corrupted vrans"):
            decode_symbols_vrans(data + b"\x00\x00\x00\x00", tables,
                                 contexts)

    def test_misaligned_tail_raises(self):
        _, tables, contexts, data = self._encoded()
        with pytest.raises(ValueError, match="truncated"):
            decode_symbols_vrans(data + b"\x00", tables, contexts)

    def test_empty_or_headerless_raise(self):
        _, tables, contexts, _ = self._encoded()
        with pytest.raises(ValueError):
            decode_symbols_vrans(b"", tables, contexts)
        with pytest.raises(ValueError):
            decode_symbols_vrans(b"\x00", tables, contexts)  # 0 lanes
        with pytest.raises(ValueError):
            decode_symbols_vrans(b"\x04" + b"\x00" * 8, tables,
                                 contexts)  # 4 lanes, 1 state

    def test_flipped_state_raises(self):
        _, tables, contexts, data = self._encoded()
        mutated = bytearray(data)
        mutated[5] ^= 0xFF  # inside the lane-state header
        with pytest.raises(ValueError, match="corrupted vrans"):
            decode_symbols_vrans(bytes(mutated), tables, contexts)

    def test_mixed_total_slot_out_of_table_range_raises(self):
        """The mixed-total fallback must bounds-check the decoded slot
        *before* fancy-indexing the cumulative rows.

        A table whose rows do not start at zero leaves slots below
        ``row[0]`` unclaimed; a state that lands there yields symbol
        index -1, and ``cumulative[ctx, s + 1]`` would silently wrap
        to a valid-looking row entry and decode garbage.  It must be
        an EntropyDecodeError instead."""
        import struct

        from repro.entropy.coder import EntropyDecodeError

        # mixed totals (4 vs 8) force the masked-row fallback; row 0
        # leaves slot 0 unclaimed (cum starts at 1, violating the row
        # contract the encoder normally guarantees)
        tables = np.array([[1, 2, 4], [0, 3, 8]], dtype=np.int64)
        contexts = np.zeros(1, dtype=np.int64)
        # single lane whose state slot (x % 4 == 0) falls below row[0]
        state = (1 << 31) | 0  # slot 0 under total 4
        data = struct.pack("<B", 1) + struct.pack("<Q", state)
        with pytest.raises(EntropyDecodeError,
                           match="outside the cumulative table"):
            decode_symbols_vrans(data, tables, contexts)


def _pinned_case(kind):
    rng = np.random.default_rng(3)
    if kind == "pow2":
        cum = pmf_to_cumulative(rng.random((8, 40)) ** 3)
    elif kind == "rescaled":  # shared non-power-of-two total
        cum = pmf_to_cumulative(rng.random((8, 40)) ** 3, total=50000)
    else:  # mixed per-row totals: the masked-comparison decode
        cum = np.stack([pmf_to_cumulative(rng.random((1, 40)), total=t)[0]
                        for t in (40, 999, 4096, 50000, 65536)])
    contexts = rng.integers(0, cum.shape[0], size=3000)
    u = rng.random(contexts.size) * cum[contexts, -1]
    symbols = (cum[contexts] <= u[:, None]).sum(axis=1) - 1
    return symbols, cum, contexts


@pytest.mark.parametrize("kind,lanes,digest", [
    ("pow2", None,
     "aa701bc41bef351e048b6c4251d0d723d1f8744f55db54785f36349a7d69178f"),
    ("pow2", 7,
     "8ed976584456756bb033d5f9a42d334fc373f010b69df632c573ac08a36fc0f2"),
    ("rescaled", None,
     "d8ee28b623e5678ef2849158fef1e8cf0bd8402ee15968b07d42800fb9556e5b"),
    ("rescaled", 7,
     "55b2877dd7b383169fc18415725b6c37c18758e6fcb6f78a50517b403da88bf3"),
    ("mixed", None,
     "ddf7afb87197c459599db421be0cc26413b8e6d896382d7774fdf1c77e27c00a"),
    ("mixed", 7,
     "7224f96c4bae1ac7fd88c961dfa58111c205c10a4c1f21e06cdee5f224a537ab"),
])
def test_stream_bytes_are_pinned(kind, lanes, digest):
    """vrans bytes stay those of the first vectorized coder (digests
    recorded before its step loop hoisted its per-step constants)."""
    symbols, cum, contexts = _pinned_case(kind)
    data = encode_symbols_vrans(symbols, cum, contexts, lanes=lanes)
    assert hashlib.sha256(data).hexdigest() == digest
    np.testing.assert_array_equal(
        decode_symbols_vrans(data, cum, contexts), symbols)
