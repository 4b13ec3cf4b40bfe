"""Wire-format freeze for the six rule-based codecs.

Pins the SHA-256 of every rule-based codec's payload on one seeded
input, under the legacy ``arithmetic`` backend (untagged ``RI``
streams) and under ``trans`` (tagged ``RT`` streams), plus the output
of each progressive ``mgard`` decode.  A change to a codec's encoder,
to the :func:`~repro.postprocess.coding.encode_ints` layout or to a
decoder's arithmetic fails here.  A deliberate format change must
update these digests in the same commit; print the current ones with
``PYTHONPATH=src python tests/baselines/test_wire_format.py``.

The inputs are built from ``default_rng`` draws and cumulative sums
only, so they are bitwise reproducible across platforms.
"""

import hashlib

import numpy as np
import pytest

from repro.codecs import get_codec
from repro.entropy import using_backend

RULE_BASED = ("szlike", "zfplike", "mgard", "dpcm", "fazlike", "tthresh")
BACKENDS = ("arithmetic", "trans")


def smooth_field(shape=(10, 20, 18), seed=2024):
    """Integrated Gaussian noise: smooth, seeded, platform-stable."""
    x = np.random.default_rng(seed).standard_normal(shape)
    for axis in range(3):
        x = np.cumsum(x, axis=axis)
    return x


def ramp_field(shape=(12, 24, 24)):
    """Linear ramp: the interpolation predictor beats the wavelet."""
    return np.arange(np.prod(shape), dtype=np.float64).reshape(shape)


def native_bound(name, frames):
    scale = float(np.ptp(frames))
    return (2e-2 if name == "tthresh" else 5e-2) * scale


#: (codec, backend) -> payload digest on ``smooth_field()``
PAYLOAD_SHA256 = {
    ("szlike", "arithmetic"):
        "c77a8edc8bc74fc5aff7267adf068dc893aaaf5ec0a2ca62dcbc69d64273ee47",
    ("zfplike", "arithmetic"):
        "8c25d284491cdfac08dff7eab557a6a17ab4f432a2b178157bb573e77db69dae",
    ("mgard", "arithmetic"):
        "88d96e1c923e883058a57880c97764257cf46a60a5f823d8df438f802998048f",
    ("dpcm", "arithmetic"):
        "cff6ae0537d31ad5a5484bd5f7f4e9f1537ddec973384199e775a165c018c445",
    ("fazlike", "arithmetic"):
        "565a5f771117b310851dbd1430346182f5050449cadf0d4bfd2983053a45cc0d",
    ("tthresh", "arithmetic"):
        "463407b0eeb96311fdf5dbf03317b3bd48e9268b8ed85b005709cf1bd9870e46",
    ("szlike", "trans"):
        "8e4ffc6afe5abb2d4bfb1f18a8a05de9cef5502e066c03b5616b75f37645cb2e",
    ("zfplike", "trans"):
        "178394a8c7c35a73f2f4e9c991e8cab94c88c8563bd7fc787948cac92f8c631c",
    ("mgard", "trans"):
        "51dd172b2ad05af6c54f4fd3348c1686935b41f88055e7562779cdd3185b2115",
    ("dpcm", "trans"):
        "4cc8eef54c575515446629f4fa88a07c6daebea69a422a3db8f64227cb7598f7",
    ("fazlike", "trans"):
        "254d2b8ff340f7f99704258eb0313bee98bddb2c772bf0ce29d836eae126b83a",
    ("tthresh", "trans"):
        "e6929f1ccbd38c790c7a05454e8d027c340b66606fa988243548cccfd0c861ae",
}

#: backend -> fazlike payload digest on ``ramp_field()`` (predictor
#: branch; the smooth field takes the wavelet branch)
FAZ_PREDICTOR_SHA256 = {
    "arithmetic":
        "6057ca87c09d88622c9928a2e63744ffe7dd2d52528fccc388bd40a640ee5271",
    "trans":
        "46694a63bee14c7e01697eec06950647389e3a9408eed40a081ed2db51633f2e",
}

#: max_level -> digest of ``mgard`` decompress(max_level=k).tobytes()
MGARD_LEVEL_SHA256 = {
    0: "2acdfc28efe21541472ceae0e78a829fa877847b658a62e4d20a37f4a714c79b",
    1: "b9cf6fedecfec1ea411c08a45683269d21fde956a0b6cae5368aa27b489f5b9d",
    2: "e56b4711128bf4fd16b1de33644dbc13a7fc6d31e2cbb7bec377a2d6c4a6f658",
    3: "e9d89be49fa7f616384af9c97c9cf0720cf6e97af9488443f20cb294931b8f47",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _payload(name, frames, backend):
    codec = get_codec(name)
    with using_backend(backend):
        return codec.compress(frames, native_bound(name, frames)).payload


@pytest.fixture(scope="module")
def field():
    return smooth_field()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", RULE_BASED)
def test_payload_digest_frozen(name, backend, field):
    assert _sha(_payload(name, field, backend)) == \
        PAYLOAD_SHA256[(name, backend)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_fazlike_predictor_branch_digest_frozen(backend):
    frames = ramp_field()
    payload = _payload("fazlike", frames, backend)
    assert get_codec("fazlike").impl.chosen_module(payload) == "predictor"
    assert _sha(payload) == FAZ_PREDICTOR_SHA256[backend]


def test_fazlike_smooth_field_takes_wavelet_branch(field):
    payload = _payload("fazlike", field, "arithmetic")
    assert get_codec("fazlike").impl.chosen_module(payload) == "wavelet"


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_mgard_progressive_decode_frozen(level, field):
    codec = get_codec("mgard")
    payload = _payload("mgard", field, "arithmetic")
    view = codec.decompress(payload, max_level=level)
    assert view.dtype == np.float64 and view.shape == field.shape
    assert _sha(view.tobytes()) == MGARD_LEVEL_SHA256[level]


if __name__ == "__main__":  # print the digests of the current code
    f = smooth_field()
    for b in BACKENDS:
        for n in RULE_BASED:
            print(f'    ("{n}", "{b}"):\n'
                  f'        "{_sha(_payload(n, f, b))}",')
    for b in BACKENDS:
        print(f'    "{b}":\n'
              f'        "{_sha(_payload("fazlike", ramp_field(), b))}",')
    p = _payload("mgard", f, "arithmetic")
    for k in range(4):
        view = get_codec("mgard").decompress(p, max_level=k)
        print(f'    {k}: "{_sha(view.tobytes())}",')
