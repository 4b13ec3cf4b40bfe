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
from typing import NamedTuple, Optional, Tuple

import numpy as np

from ..entropy.backend import (DEFAULT_BACKEND, backend_from_tag,
                               get_backend)
from ..entropy.coder import EntropyDecodeError, pmf_to_cumulative
from ..entropy.rangecoder import body_size_bound

__all__ = ["encode_ints", "decode_ints", "encoded_size_bound"]

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
#: a uint64 needs at most ten 7-bit groups; the tenth holds one bit
_VARINT_MAX_BYTES = 10


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
    """Inverse of :func:`_encode_varints` for the payload at ``offset``.

    Every varint ends at the first byte without its high bit, so the
    ends of all ``n`` of them are one vectorized search.  ``n`` is
    checked against the bytes that remain before anything is
    allocated, and a truncated body or a varint longer than a uint64
    raises :class:`EntropyDecodeError`.
    """
    pos = offset + _VARINT_HEADER
    if len(data) < pos:
        raise EntropyDecodeError(
            "corrupted varint payload: truncated header")
    n, = struct.unpack_from("<I", data, offset + 2)
    if n > len(data) - pos:  # every varint takes at least one byte
        raise EntropyDecodeError(
            f"corrupted varint payload: {n} values in "
            f"{len(data) - pos} bytes")
    if not n:
        return np.zeros(0, dtype=np.int64), pos
    # n varints of at most ten bytes each end within this window
    window = np.frombuffer(data, dtype=np.uint8, offset=pos,
                           count=min(len(data) - pos, _VARINT_MAX_BYTES * n))
    ends = (window < 0x80).nonzero()[0][:n]
    if ends.size < n:
        if window.size < len(data) - pos:
            raise EntropyDecodeError(
                "corrupted varint payload: value overflows 64 bits")
        raise EntropyDecodeError("corrupted varint payload: truncated")
    starts = np.zeros(n, dtype=ends.dtype)
    starts[1:] = ends[:-1] + 1
    lens = ends - starts + 1
    # a tenth byte may carry only bit 63, and there is no eleventh
    if int(lens.max()) >= _VARINT_MAX_BYTES and (
            (lens > _VARINT_MAX_BYTES).any()
            or (window[ends[lens == _VARINT_MAX_BYTES]] > 1).any()):
        raise EntropyDecodeError(
            "corrupted varint payload: value overflows 64 bits")
    body = window[:ends[-1] + 1]
    # byte j of its varint carries bits 7j..7j+6
    shifts = (np.arange(body.size) - np.repeat(starts, lens)) * 7
    vals = np.bitwise_or.reduceat(
        (body & np.uint8(0x7F)).astype(np.uint64) << shifts.astype(np.uint64),
        starts)
    return _unzigzag(vals), pos + int(body.size)


class _Histogram(NamedTuple):
    """A histogram payload, sized but not yet entropy-coded."""

    magic: bytes
    vmin: int
    symbols: np.ndarray
    hist: np.ndarray
    tables: Optional[np.ndarray]  # ``None`` for a one-symbol alphabet
    size_bound: int  # never above the payload's length once coded


def _layout(values: np.ndarray, coder) -> Tuple[np.ndarray, np.ndarray,
                                                 int, Optional[_Histogram]]:
    """Size both forms of a non-empty ``values`` without coding a body.

    Returns ``(zigzag, lens, varint_size, histogram)``; ``histogram``
    is ``None`` when the header alone already loses to the varints.
    """
    vmin = int(values.min())
    alphabet = int(values.max()) - vmin + 1
    if coder.name == DEFAULT_BACKEND:
        magic = _MAGIC
    else:
        magic = _TAGGED_MAGIC + struct.pack("<B", coder.tag)
    zigzag = _zigzag(values)
    lens = _varint_lengths(zigzag)
    varint_size = _VARINT_HEADER + int(lens.sum())
    header_size = len(magic) + struct.calcsize(_HEADER) + 4 * alphabet
    if alphabet > _MAX_HISTOGRAM_ALPHABET or varint_size < header_size:
        return zigzag, lens, varint_size, None
    symbols = values - vmin
    hist = np.bincount(symbols, minlength=alphabet)
    tables, body_bound = None, 0
    if alphabet > 1:
        tables = pmf_to_cumulative(hist[None, :].astype(np.float64))
        if coder.name == DEFAULT_BACKEND:
            body_bound = body_size_bound(np.diff(tables[0]),
                                         tables[0, -1], hist)
    return zigzag, lens, varint_size, _Histogram(
        magic, vmin, symbols, hist, tables, header_size + body_bound)


def encoded_size_bound(values: np.ndarray, backend=None) -> int:
    """A lower bound on ``len(encode_ints(values, backend))``, found
    without entropy-coding anything.

    Exact whenever the header alone decides the form (empty input, a
    one-symbol or oversized alphabet, varints smaller than the
    histogram header).  Otherwise the body counts as
    :func:`repro.entropy.rangecoder.body_size_bound`'s proven minimum
    for the arithmetic backend and as zero bytes for any other.
    """
    values = np.asarray(values, dtype=np.int64).ravel()
    if not values.size:
        return len(_MAGIC) + struct.calcsize(_HEADER)
    _, _, varint_size, histogram = _layout(values, get_backend(backend))
    if histogram is None:
        return varint_size
    return min(varint_size, histogram.size_bound)


def encode_ints(values: np.ndarray, backend=None) -> bytes:
    """Encode an integer array into a self-delimiting byte payload.

    Layout: magic, count, vmin, alphabet size, body length, 32-bit
    histogram, entropy-coded body.  The histogram header is the
    price of adaptivity; for the small alphabets of quantized residual
    coefficients it is a few dozen bytes.  ``backend`` selects the
    body coder (``None`` uses the process default); the arithmetic
    default keeps the legacy wire format byte-for-byte.

    Whichever of that payload and the ``RV`` zigzag varints is smaller
    is kept (ties keep the histogram; the magic bytes disambiguate).
    The varints are sized without being built, and the body is never
    entropy-coded when :func:`encoded_size_bound`'s proven minimum for
    the histogram payload already exceeds them, so a payload the
    varints would replace costs no coding loop.
    """
    values = np.asarray(values, dtype=np.int64).ravel()
    n = values.size
    if n == 0:
        return _MAGIC + struct.pack(_HEADER, 0, 0, 0, 0)
    coder = get_backend(backend)
    zigzag, lens, varint_size, histogram = _layout(values, coder)
    if histogram is None or histogram.size_bound > varint_size:
        return _encode_varints(zigzag, lens)
    body = b""
    if histogram.tables is not None:
        body = coder.encode(histogram.symbols, histogram.tables,
                            np.zeros(n, dtype=np.int64))
    hist = histogram.hist
    coded = (histogram.magic
             + struct.pack(_HEADER, n, histogram.vmin, hist.size, len(body))
             + hist.astype("<u4").tobytes() + body)
    if len(coded) <= varint_size:
        return coded
    return _encode_varints(zigzag, lens)


def decode_ints(data: bytes, offset: int = 0) -> Tuple[np.ndarray, int]:
    """Decode one :func:`encode_ints` payload starting at ``offset``.

    Returns ``(values, next_offset)`` so multiple payloads can be
    concatenated back to back.  The body decoder is chosen by the
    payload itself: legacy ``RI`` payloads are arithmetic, ``RT``
    payloads carry a one-byte backend tag.  Bad magic, an unknown tag,
    and a header, histogram or body cut short raise
    :class:`EntropyDecodeError`; sizes are checked against the bytes
    that remain before anything is allocated or sliced.
    """
    magic = data[offset:offset + 2]
    if magic == _VARINT_MAGIC:
        return _decode_varints(data, offset)
    if magic == _TAGGED_MAGIC:
        if len(data) < offset + 3:
            raise EntropyDecodeError("corrupted payload: truncated header")
        try:
            coder = backend_from_tag(data[offset + 2])
        except ValueError as exc:
            raise EntropyDecodeError(f"corrupted payload: {exc}") from exc
        pos = offset + 3
    elif magic == _MAGIC:
        coder = get_backend(DEFAULT_BACKEND)
        pos = offset + 2
    else:
        raise EntropyDecodeError("corrupted payload: bad magic")
    if len(data) < pos + struct.calcsize(_HEADER):
        raise EntropyDecodeError("corrupted payload: truncated header")
    n, vmin, alphabet, body_len = struct.unpack_from(_HEADER, data, pos)
    pos += struct.calcsize(_HEADER)
    if n == 0:
        return np.zeros(0, dtype=np.int64), pos
    if not 1 <= alphabet <= _MAX_HISTOGRAM_ALPHABET:
        raise EntropyDecodeError(
            f"corrupted payload: alphabet of {alphabet} symbols")
    if 4 * alphabet > len(data) - pos:
        raise EntropyDecodeError("corrupted payload: truncated histogram")
    hist = np.frombuffer(data, dtype="<u4", count=alphabet,
                         offset=pos).astype(np.int64)
    pos += 4 * alphabet
    if int(hist.sum()) != n:
        raise EntropyDecodeError(
            f"corrupted payload: histogram counts {int(hist.sum())} "
            f"values, header {n}")
    if body_len > len(data) - pos:
        raise EntropyDecodeError("corrupted payload: truncated body")
    if alphabet == 1:
        return np.full(n, vmin, dtype=np.int64), pos + body_len
    tables = pmf_to_cumulative(hist[None, :].astype(np.float64))
    symbols = coder.decode(data[pos:pos + body_len], tables,
                           np.zeros(n, dtype=np.int64))
    return symbols + vmin, pos + body_len
