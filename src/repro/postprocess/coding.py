"""Entropy coding of correction payloads (quantized coefficients).

A self-describing, self-delimiting integer codec: a compact histogram
header plus an entropy-coded body.  Used for PCA coefficient values,
kept-index lists, per-block counts and escape-block residuals —
everything in the ``G`` term of Eq. 11 goes through here, so its size
accounting is honest bytes, not estimates.

The body coder is pluggable (:mod:`repro.entropy.backend`): payloads
written with the default arithmetic backend keep the legacy ``RI``
magic byte-for-byte; any other backend writes ``RT`` plus the
backend's one-byte wire tag, so :func:`decode_ints` self-selects the
decoder with no caller hints — which is how every baseline codec in
the repo gains backend choice without touching its own format.
"""

from __future__ import annotations

import struct
from typing import Tuple

import numpy as np

from ..entropy.backend import (DEFAULT_BACKEND, backend_from_tag,
                               get_backend)
from ..entropy.coder import pmf_to_cumulative

__all__ = ["encode_ints", "decode_ints"]

_MAGIC = b"RI"
_VARINT_MAGIC = b"RV"
_TAGGED_MAGIC = b"RT"  # + one backend tag byte, then the _MAGIC layout
_HEADER = "<IqiI"  # count, vmin, alphabet, body length

#: Above this alphabet size the histogram header would dominate; fall
#: back to zigzag varints (used by rare escape blocks with huge ranges).
_MAX_HISTOGRAM_ALPHABET = 1 << 12


#: a zigzagged value ``u`` takes ``1 + searchsorted(_VARINT_LIMITS, u,
#: "right")`` bytes as a varint
_VARINT_LIMITS = np.array([1 << (7 * k) for k in range(1, 10)],
                          dtype=np.uint64)
_VARINT_SHIFTS = np.arange(0, 70, 7, dtype=np.uint64)
_VARINT_HEADER = 6  # magic + uint32 count


def _zigzag(v: np.ndarray) -> np.ndarray:
    """int64 -> uint64 (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...).

    Shift/xor on the raw 64 bits, so the whole int64 range maps
    without overflow.
    """
    v = np.asarray(v, dtype=np.int64)
    return (v.view(np.uint64) << np.uint64(1)) ^ (v >> 63).view(np.uint64)


def _unzigzag(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=np.uint64)
    return ((u >> np.uint64(1)) ^ -(u & np.uint64(1))).view(np.int64)


def _varint_lengths(u: np.ndarray) -> np.ndarray:
    """Bytes each zigzagged value takes as a base-128 varint."""
    return np.searchsorted(_VARINT_LIMITS, u, side="right") + 1


def _encode_varints(u: np.ndarray, lens: np.ndarray) -> bytes:
    """``RV`` payload of zigzagged values ``u`` with lengths ``lens``.

    Each value is written as little-endian 7-bit groups, the high bit
    set on every byte but its last.
    """
    width = int(lens.max())
    groups = ((u[:, None] >> _VARINT_SHIFTS[:width]).astype(np.uint8)
              & np.uint8(0x7F))
    pos = np.arange(width)
    groups |= (pos < (lens - 1)[:, None]).astype(np.uint8) << np.uint8(7)
    body = groups[pos < lens[:, None]]
    return _VARINT_MAGIC + struct.pack("<I", u.size) + body.tobytes()


def _decode_varints(data: bytes, offset: int) -> Tuple[np.ndarray, int]:
    n, = struct.unpack_from("<I", data, offset + 2)
    pos = offset + 2 + 4
    vals = np.empty(n, dtype=np.uint64)
    for i in range(n):
        u, shift = 0, 0
        while True:
            byte = data[pos]
            pos += 1
            u |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        vals[i] = u
    return _unzigzag(vals), pos


def encode_ints(values: np.ndarray, backend=None) -> bytes:
    """Encode an integer array into a self-delimiting byte payload.

    Layout: magic, count, vmin, alphabet size, body length, 32-bit
    histogram, entropy-coded body.  The histogram header is the
    price of adaptivity; for the small alphabets of quantized residual
    coefficients it is a few dozen bytes.  ``backend`` selects the
    body coder (``None`` uses the process default); the arithmetic
    default keeps the legacy wire format byte-for-byte.
    """
    values = np.asarray(values, dtype=np.int64).ravel()
    n = values.size
    if n == 0:
        return _MAGIC + struct.pack(_HEADER, 0, 0, 0, 0)
    coder = get_backend(backend)
    vmin = int(values.min())
    vmax = int(values.max())
    alphabet = vmax - vmin + 1
    if coder.name == DEFAULT_BACKEND:
        magic = _MAGIC
    else:
        magic = _TAGGED_MAGIC + struct.pack("<B", coder.tag)
    # The histogram header can dominate small payloads; keep whichever
    # representation is actually smaller (magic bytes disambiguate).
    # The varints are sized without being built, and when they beat
    # the histogram header alone the body is never entropy-coded.
    zigzag = _zigzag(values)
    lens = _varint_lengths(zigzag)
    varint_size = _VARINT_HEADER + int(lens.sum())
    header_size = len(magic) + struct.calcsize(_HEADER) + 4 * alphabet
    if alphabet > _MAX_HISTOGRAM_ALPHABET or varint_size < header_size:
        return _encode_varints(zigzag, lens)
    symbols = values - vmin
    hist = np.bincount(symbols, minlength=alphabet).astype(np.int64)
    if alphabet == 1:
        body = b""
    else:
        tables = pmf_to_cumulative(hist[None, :].astype(np.float64))
        body = coder.encode(symbols, tables, np.zeros(n, dtype=np.int64))
    coded = (magic + struct.pack(_HEADER, n, vmin, alphabet, len(body))
             + hist.astype("<u4").tobytes() + body)
    if len(coded) <= varint_size:
        return coded
    return _encode_varints(zigzag, lens)


def decode_ints(data: bytes, offset: int = 0) -> Tuple[np.ndarray, int]:
    """Decode one :func:`encode_ints` payload starting at ``offset``.

    Returns ``(values, next_offset)`` so multiple payloads can be
    concatenated back to back.  The body decoder is chosen by the
    payload itself: legacy ``RI`` payloads are arithmetic, ``RT``
    payloads carry a one-byte backend tag.
    """
    magic = data[offset:offset + 2]
    if magic == _VARINT_MAGIC:
        return _decode_varints(data, offset)
    if magic == _TAGGED_MAGIC:
        coder = backend_from_tag(data[offset + 2])
        pos = offset + 3
    elif magic == _MAGIC:
        coder = get_backend(DEFAULT_BACKEND)
        pos = offset + 2
    else:
        raise ValueError("corrupted payload: bad magic")
    n, vmin, alphabet, body_len = struct.unpack_from(_HEADER, data, pos)
    pos += struct.calcsize(_HEADER)
    if n == 0:
        return np.zeros(0, dtype=np.int64), pos
    hist = np.frombuffer(data, dtype="<u4", count=alphabet,
                         offset=pos).astype(np.int64)
    pos += 4 * alphabet
    if alphabet == 1:
        return np.full(n, vmin, dtype=np.int64), pos
    tables = pmf_to_cumulative(hist[None, :].astype(np.float64))
    symbols = coder.decode(data[pos:pos + body_len], tables,
                           np.zeros(n, dtype=np.int64))
    return symbols + vmin, pos + body_len
