"""FAZ-like candidate selection sized by a lower bound, not by coding.

:meth:`FAZLikeCompressor.encode` entropy-codes a candidate only when
its proven size bound says it could still win.  Its bytes must be
exactly those of coding both candidates and keeping the smaller, ties
going to the wavelet, which is the oracle here.
"""

import numpy as np
import pytest

from repro.baselines.fazlike import FAZLikeCompressor, _size_bound
from repro.data import get_dataset_spec
from repro.entropy.backend import ArithmeticBackend


def code_both_oracle(faz, frames, eb):
    """Code both candidates in full; the smaller wins, ties go to the
    wavelet."""
    wav, wav_recon = faz.wavelet.encode(frames, eb)
    prd, prd_recon = faz.predictor.encode(frames, eb)
    if len(wav) <= len(prd):
        return b"FAZ1\x00" + wav, wav_recon
    return b"FAZ1\x01" + prd, prd_recon


def jhtdb(seed=1):
    return get_dataset_spec("jhtdb", seed=seed, t=6, h=12,
                            w=12).build().frames(0)


def e3sm():
    return get_dataset_spec("e3sm", seed=0, t=12, h=24,
                            w=24).build().frames(0)


CASES = {
    # fine bound on smooth data: the wavelet wins by a wide margin
    "wavelet-wins": (e3sm, 0.5, "wavelet"),
    # coarse bound: the predictor wins
    "predictor-wins": (e3sm, 9.0, "predictor"),
    # equal lengths with inexact bounds: both coded, tie to the wavelet
    "tie-inexact": (jhtdb, 1.12, "wavelet"),
    # equal lengths where each bound is exact (one-symbol chunks)
    "tie-exact": (lambda: np.zeros((2, 4, 4)), 0.5, "wavelet"),
    # wavelet one byte smaller though the predictor's bound is smaller
    "wavelet-by-one": (jhtdb, 1.137, "wavelet"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bytes_match_the_code_both_oracle(case):
    make, eb, winner = CASES[case]
    frames = make()
    faz = FAZLikeCompressor()
    payload, recon = faz.encode(frames, eb)
    expected, expected_recon = code_both_oracle(faz, frames, eb)
    assert payload == expected
    np.testing.assert_array_equal(recon, expected_recon)
    assert faz.chosen_module(payload) == winner
    np.testing.assert_array_equal(faz.decompress(payload), recon)


def test_ties_are_real_ties():
    """The tie cases compare equal lengths, so only the tie rule
    decides them."""
    for case in ("tie-inexact", "tie-exact"):
        make, eb, _ = CASES[case]
        faz = FAZLikeCompressor()
        frames = make()
        assert (len(faz.wavelet.encode(frames, eb)[0])
                == len(faz.predictor.encode(frames, eb)[0]))


def test_bounds_never_exceed_the_coded_candidates():
    faz = FAZLikeCompressor()
    for make, eb, _ in CASES.values():
        frames = make()
        for module in (faz.wavelet, faz.predictor):
            header, arrays, _ = module.quantize(frames, eb)
            assert (_size_bound(header, arrays)
                    <= len(module.encode(frames, eb)[0]))


def test_the_losing_candidate_is_not_entropy_coded(monkeypatch):
    """Where the bound settles it, only the winner's chunks reach the
    arithmetic coder."""
    calls = []
    encode = ArithmeticBackend.encode

    def counting(self, symbols, cumulative, contexts):
        calls.append(len(symbols))
        return encode(self, symbols, cumulative, contexts)

    monkeypatch.setattr(ArithmeticBackend, "encode", counting)
    frames = e3sm()
    faz = FAZLikeCompressor()
    faz.wavelet.encode(frames, 0.5)
    wavelet_calls = len(calls)
    calls.clear()
    payload, _ = faz.encode(frames, 0.5)
    assert faz.chosen_module(payload) == "wavelet"
    assert len(calls) == wavelet_calls
