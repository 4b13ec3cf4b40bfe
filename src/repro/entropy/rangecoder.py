"""Integer arithmetic coder (Witten–Neal–Cleary style, 32-bit state).

The coder consumes cumulative-frequency triples ``(cum_lo, cum_hi,
total)``: a symbol with probability mass ``(cum_hi - cum_lo) / total``
narrows the coding interval accordingly.  ``total`` must not exceed
:data:`MAX_TOTAL` so interval updates never underflow.

This is the "lossless entropy coding" backend for both the hyperprior
(factorized model) and the latent (Gaussian conditional) streams, and
for the PCA-correction coefficients of the error-bound stage.

Renormalization in one step
---------------------------
The textbook coder renormalizes one bit at a time: while ``low`` and
``high`` share their top bit, emit it (plus any pending underflow
bits) and shift both left by one.  Every such bit is a run of the
same test, so here the whole shared prefix goes at once:
``k = 32 - (low ^ high).bit_length()`` bits leave the state in one
shift, the encoder appends them (with the pending run after the first
one) to an integer bit accumulator flushed with :meth:`int.to_bytes`,
and the decoder takes ``k`` fresh bits from a 32-bit refill buffer.
Only the E3 underflow steps (``low`` in the second quarter, ``high``
in the third) still loop, one bit each; they are rare and cannot be
followed by another shared prefix.  The bytes are exactly those of the
per-bit coder: same state, same termination, zero-padded final byte,
and a decoder that reads zeros past the end of the data.

:class:`ArithmeticEncoder` and :class:`ArithmeticDecoder` hold the
state; their array methods (:meth:`ArithmeticEncoder.encode_array`,
:meth:`ArithmeticDecoder.decode_rows`) are the coding loops, and the
per-symbol methods delegate to them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import List, Sequence

import numpy as np

__all__ = ["ArithmeticEncoder", "ArithmeticDecoder", "EntropyDecodeError",
           "MAX_TOTAL", "PRECISION", "body_size_bound"]

PRECISION = 32
_FULL = (1 << PRECISION) - 1
_HALF = 1 << (PRECISION - 1)
_QUARTER = 1 << (PRECISION - 2)
_THREE_QUARTER = _HALF + _QUARTER

#: Bits the encoder's accumulator collects before flushing whole bytes.
_FLUSH_BITS = 64

#: Largest permissible cumulative-frequency total.
MAX_TOTAL = 1 << 16

#: Bits :func:`body_size_bound` gives away to float64 rounding; the
#: rounding error of its sums is many orders of magnitude smaller.
_BOUND_MARGIN_BITS = 10


class EntropyDecodeError(ValueError):
    """A compressed symbol stream failed validation during decode.

    Raised when the arithmetic decoder's target leaves its table, and
    by the strict decoders (``vrans``, ``trans``) on truncated streams,
    trailing words, states that fail to return to the initial rANS
    value, or slots that fall outside their table's valid range —
    anywhere the alternative would be silently decoding garbage.
    Subclasses :class:`ValueError` so callers that catch the historical
    error type keep working.
    """


class ArithmeticEncoder:
    """Streaming arithmetic encoder."""

    def __init__(self) -> None:
        self._low = 0
        self._high = _FULL
        self._pending = 0
        self._acc = 0      # emitted bits not yet flushed, MSB first
        self._nacc = 0     # how many bits ``_acc`` holds
        self._out = bytearray()
        self._finished = False

    def encode(self, cum_lo: int, cum_hi: int, total: int) -> None:
        """Encode one symbol occupying ``[cum_lo, cum_hi)`` of ``total``."""
        self.encode_array((cum_lo,), (cum_hi,), (total,))

    def encode_array(self, cum_lo: Sequence[int], cum_hi: Sequence[int],
                     total: Sequence[int]) -> None:
        """Encode symbol ``i`` occupying ``[cum_lo[i], cum_hi[i])`` of
        ``total[i]``, in order.

        Every interval is validated before any is coded, so an invalid
        one leaves the encoder untouched.
        """
        if self._finished:
            raise RuntimeError("encoder already finished")
        lo = np.asarray(cum_lo, dtype=np.int64).ravel()
        hi = np.asarray(cum_hi, dtype=np.int64).ravel()
        tot = np.asarray(total, dtype=np.int64).ravel()
        if not lo.shape == hi.shape == tot.shape:
            raise ValueError("cum_lo, cum_hi and total must have equal "
                             "length")
        if not lo.size:
            return
        bad = (lo < 0) | (hi <= lo) | (tot < hi)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"invalid cumulative range ({lo[i]}, {hi[i]}, "
                             f"{tot[i]})")
        if int(tot.max()) > MAX_TOTAL:
            raise ValueError(
                f"total {int(tot.max())} exceeds MAX_TOTAL {MAX_TOTAL}")

        low, high, pending = self._low, self._high, self._pending
        acc, nacc, out = self._acc, self._nacc, self._out
        for a, b, t in zip(lo.tolist(), hi.tolist(), tot.tolist()):
            span = high - low + 1
            high = low + span * b // t - 1
            low += span * a // t
            x = low ^ high
            if x < _HALF:
                # the k leading bits low and high share are settled:
                # emit them, the pending run after the first, at once
                n = x.bit_length()
                k = 32 - n
                bits = high >> n
                if pending:
                    half_k = 1 << (k - 1)
                    if bits & half_k:   # 1, then pending zeros
                        bits = (half_k << pending) | (bits ^ half_k)
                    else:               # 0, then pending ones
                        bits |= ((1 << pending) - 1) << (k - 1)
                    acc = (acc << (k + pending)) | bits
                    nacc += k + pending
                    pending = 0
                else:
                    acc = (acc << k) | bits
                    nacc += k
                if nacc >= _FLUSH_BITS:
                    rem = nacc & 7
                    out += (acc >> rem).to_bytes(nacc >> 3, "big")
                    acc &= (1 << rem) - 1
                    nacc = rem
                low = (low << k) & _FULL
                high = ((high << k) & _FULL) | ((1 << k) - 1)
            while low >= _QUARTER and high < _THREE_QUARTER:
                pending += 1
                low = (low - _QUARTER) << 1
                high = ((high - _QUARTER) << 1) | 1
        self._low, self._high, self._pending = low, high, pending
        self._acc, self._nacc = acc, nacc

    def finish(self) -> bytes:
        """Terminate the stream and return the encoded bytes."""
        if self._finished:
            raise RuntimeError("encoder already finished")
        self._finished = True
        # one disambiguating bit, then pending + 1 copies of its inverse
        run = self._pending + 1
        if self._low < _QUARTER:
            bits = (1 << run) - 1
        else:
            bits = 1 << run
        nacc = self._nacc + run + 1
        pad = -nacc & 7
        acc = ((self._acc << (run + 1)) | bits) << pad
        return bytes(self._out + acc.to_bytes((nacc + pad) >> 3, "big"))


class ArithmeticDecoder:
    """Streaming arithmetic decoder mirroring :class:`ArithmeticEncoder`."""

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._low = 0
        self._high = _FULL
        # bits past the end of the data read as zeros
        self._value = int.from_bytes(self._data[:4].ljust(4, b"\0"), "big")
        self._pos = 4      # next unread byte
        self._buf = 0      # refill buffer; its low ``_nbuf`` bits unread
        self._nbuf = 0

    def decode_target(self, total: int) -> int:
        """Return a value in ``[0, total)`` locating the next symbol.

        The caller maps it to a symbol via its cumulative table (e.g.
        ``bisect.bisect_right``) and then calls :meth:`advance`.
        """
        span = self._high - self._low + 1
        target = ((self._value - self._low + 1) * total - 1) // span
        if target < 0 or target >= total:
            raise EntropyDecodeError("corrupted stream: target out of range")
        return target

    def advance(self, cum_lo: int, cum_hi: int, total: int) -> None:
        """Consume the symbol identified by ``(cum_lo, cum_hi, total)``.

        The interval must be the one holding :meth:`decode_target`'s
        value.
        """
        target = self.decode_target(total)
        if not cum_lo <= target < cum_hi:
            raise ValueError(
                f"interval [{cum_lo}, {cum_hi}) does not hold the decoded "
                f"target {target}")
        self.decode_rows([[cum_lo, cum_hi]], [total], [0])

    def decode_rows(self, rows: Sequence[Sequence[int]],
                    totals: Sequence[int],
                    contexts: Sequence[int]) -> List[int]:
        """Decode one symbol per entry of ``contexts``.

        Symbol ``i`` is looked up in the ascending cumulative row
        ``rows[contexts[i]]`` (``row[0] <= target``) under the total
        ``totals[contexts[i]]``.  Rows are plain lists (``bisect``
        beats ``np.searchsorted`` per symbol).
        """
        data = self._data
        low, high, value = self._low, self._high, self._value
        pos, buf, nbuf = self._pos, self._buf, self._nbuf
        out = []
        append = out.append
        for c in contexts:
            row = rows[c]
            t = totals[c]
            span = high - low + 1
            target = ((value - low + 1) * t - 1) // span
            if target < 0 or target >= t:
                raise EntropyDecodeError(
                    "corrupted stream: target out of range")
            s = bisect_right(row, target) - 1
            append(s)
            high = low + span * row[s + 1] // t - 1
            low += span * row[s] // t
            x = low ^ high
            if x < _HALF:
                k = 32 - x.bit_length()
                if nbuf < k:
                    word = data[pos:pos + 4]
                    pos += 4
                    buf = (((buf & ((1 << nbuf) - 1)) << 32)
                           | int.from_bytes(word.ljust(4, b"\0"), "big"))
                    nbuf += 32
                nbuf -= k
                low = (low << k) & _FULL
                high = ((high << k) & _FULL) | ((1 << k) - 1)
                value = (((value << k) & _FULL)
                         | ((buf >> nbuf) & ((1 << k) - 1)))
            while low >= _QUARTER and high < _THREE_QUARTER:
                if not nbuf:
                    word = data[pos:pos + 4]
                    pos += 4
                    buf = int.from_bytes(word.ljust(4, b"\0"), "big")
                    nbuf = 32
                nbuf -= 1
                low = (low - _QUARTER) << 1
                high = ((high - _QUARTER) << 1) | 1
                value = ((value - _QUARTER) << 1) | ((buf >> nbuf) & 1)
        self._low, self._high, self._value = low, high, value
        self._pos, self._buf, self._nbuf = pos, buf, nbuf
        return out


def body_size_bound(freq, total, count=1) -> int:
    """A proven lower bound on ``len(ArithmeticEncoder.finish())``.

    The stream codes each symbol of frequency ``freq[i]`` out of
    ``total[i]`` exactly ``count[i]`` times (the arrays broadcast), in
    any order.  Callers size a payload with this before paying for the
    coding loop, and skip the loop when even the bound loses.

    Proof.  Write ``span = high - low + 1``; it starts at ``2^32``.

    * After renormalization ``low < HALF <= high`` (the shared prefix is
      gone) and not ``QUARTER <= low, high < THREE_QUARTER`` (the E3
      loop ended), so ``span > 2^30``.
    * Coding ``[a, b)`` of ``t`` sets ``span' = floor(span*b/t) -
      floor(span*a/t) < span*f/t + 1 <= span * (f/t + 2^-30)``.
    * Every prefix shift and every E3 step doubles ``span``, and each
      is one bit of the stream; call their number ``S``.  :meth:`finish`
      writes ``2`` more bits, so the body holds exactly ``S + 2`` bits
      before padding to whole bytes.

    Taking logs, ``log2 span_end < 32 - Σ log2(1 / (f/t + 2^-30)) + S``,
    and ``span_end > 2^30`` after the last renormalization, so
    ``8 * len(body) >= S + 2 > Σ -log2(f/t + 2^-30) = I - E`` with
    ``I = Σ log2(t/f)`` the information content and ``E`` the coder's
    finite-precision excess.  The sum is taken in float64 less
    :data:`_BOUND_MARGIN_BITS` bits, which covers its rounding many
    times over; every body also holds at least one byte.
    """
    freq = np.asarray(freq, dtype=np.float64)
    bits = float(np.sum(np.asarray(count, dtype=np.float64)
                        * -np.log2(freq / total + 2.0 ** -30)))
    return max(1, math.floor((bits - _BOUND_MARGIN_BITS) / 8) + 1)
