"""The reconstruction a rule-based codec reports is bitwise its decode.

:class:`~repro.codecs.rule_based.RuleBasedCodec` takes
``CodecResult.reconstruction`` from the native encoder
(``encode(frames, bound) -> (payload, recon)``) instead of decoding the
payload it just wrote.  These tests are the proof that skipping the
decode changes nothing: for every rule-based codec, entropy backend,
bound and shape, the reported reconstruction has the dtype, shape and
bytes of ``decompress(payload)``.
"""

import numpy as np
import pytest

from repro.codecs import get_codec
from repro.entropy import using_backend

RULE_BASED = ("szlike", "zfplike", "mgard", "dpcm", "fazlike", "tthresh")
BACKENDS = ("arithmetic", "rans", "vrans", "trans")
#: bound relative to the field's range (or magnitude, if constant)
BOUNDS = {"tight": 1e-4, "loose": 1e-1}
SHAPES = ((1, 8, 8), (5, 17, 9), (12, 24, 24), (33, 7, 13), "constant")


def make_field(shape, seed=0):
    if shape == "constant":
        return np.full((6, 10, 12), -2.75)
    x = np.random.default_rng(seed).standard_normal(shape)
    for axis in range(3):
        x = np.cumsum(x, axis=axis)
    return x


def bound_for(frames, rel):
    scale = float(np.ptp(frames)) or max(float(np.abs(frames).max()), 1.0)
    return rel * scale


def assert_bitwise_decode(name, frames, bound, backend):
    codec = get_codec(name)
    with using_backend(backend):
        res = codec.compress(frames, bound)
    back = codec.decompress(res.payload)
    rec = res.reconstruction
    assert rec.dtype == back.dtype
    assert rec.shape == back.shape == frames.shape
    assert rec.tobytes() == back.tobytes()
    return res


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("bound", sorted(BOUNDS))
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", RULE_BASED)
def test_reconstruction_is_decode(name, backend, bound, shape):
    frames = make_field(shape)
    assert_bitwise_decode(name, frames, bound_for(frames, BOUNDS[bound]),
                          backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("module,frames", [
    ("wavelet", make_field((12, 24, 24), seed=5)),
    ("predictor", np.arange(12 * 24 * 24, dtype=np.float64)
     .reshape(12, 24, 24)),
], ids=["wavelet", "predictor"])
def test_fazlike_both_branches(module, frames, backend):
    res = assert_bitwise_decode("fazlike", frames,
                                bound_for(frames, 1e-3), backend)
    assert get_codec("fazlike").impl.chosen_module(res.payload) == module


@pytest.mark.parametrize("level", [None, 0])
def test_mgard_full_view_is_encoder_reconstruction(level):
    """``max_level`` 0 and None both give the full-resolution view."""
    frames = make_field((12, 24, 24), seed=3)
    codec = get_codec("mgard")
    res = codec.compress(frames, bound_for(frames, 1e-2))
    view = codec.decompress(res.payload, max_level=level)
    assert view.tobytes() == res.reconstruction.tobytes()
