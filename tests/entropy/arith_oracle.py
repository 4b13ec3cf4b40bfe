"""Frozen byte oracle: the per-bit arithmetic coder as first written.

A verbatim copy of the Witten–Neal–Cleary coder that emitted one bit
per renormalization step through ``BitWriter``/``BitReader``.  Every
arithmetic stream already on disk was written by this code, so the
one-step coder in :mod:`repro.entropy.rangecoder` must reproduce its
bytes and its decodes exactly.  Do not edit; it is the reference.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["BitWriter", "BitReader", "ArithmeticEncoder",
           "ArithmeticDecoder", "encode_symbols", "decode_symbols"]


class BitWriter:
    """Accumulates single bits MSB-first into a byte buffer."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._current = 0
        self._nbits = 0

    def write(self, bit: int) -> None:
        self._current = (self._current << 1) | (bit & 1)
        self._nbits += 1
        if self._nbits == 8:
            self._buf.append(self._current)
            self._current = 0
            self._nbits = 0

    def write_run(self, bit: int, count: int) -> None:
        """Write ``count`` copies of ``bit``.

        Runs covering whole bytes are appended as bytes instead of
        single bits — the arithmetic coder's pending-carry runs are
        adversarially long (one per renormalization), and emitting them
        bitwise is worst-case quadratic.  Output is byte-identical to
        ``count`` repeated :meth:`write` calls.
        """
        bit &= 1
        if count <= 0:
            return
        if self._nbits:  # top up the current partial byte first
            take = min(count, 8 - self._nbits)
            for _ in range(take):
                self.write(bit)
            count -= take
        nbytes, count = divmod(count, 8)
        if nbytes:
            self._buf += (b"\xff" if bit else b"\x00") * nbytes
        for _ in range(count):
            self.write(bit)

    def getvalue(self) -> bytes:
        """Flush (zero-padding the final partial byte) and return bytes."""
        if self._nbits:
            tail = self._current << (8 - self._nbits)
            return bytes(self._buf) + bytes([tail])
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf) * 8 + self._nbits


class BitReader:
    """Reads single bits MSB-first; yields 0 past the end of data.

    The trailing-zeros convention matches the arithmetic decoder, which
    may read a handful of bits beyond the encoded payload while
    resolving its final symbols.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0
        self._current = 0
        self._nbits = 0

    def read(self) -> int:
        if self._nbits == 0:
            if self._pos < len(self._data):
                self._current = self._data[self._pos]
                self._pos += 1
            else:
                self._current = 0
            self._nbits = 8
        self._nbits -= 1
        return (self._current >> self._nbits) & 1


PRECISION = 32
_FULL = (1 << PRECISION) - 1
_HALF = 1 << (PRECISION - 1)
_QUARTER = 1 << (PRECISION - 2)
_THREE_QUARTER = _HALF + _QUARTER

#: Largest permissible cumulative-frequency total.
MAX_TOTAL = 1 << 16


class ArithmeticEncoder:
    """Streaming arithmetic encoder."""

    def __init__(self) -> None:
        self._low = 0
        self._high = _FULL
        self._pending = 0
        self._bits = BitWriter()
        self._finished = False

    def encode(self, cum_lo: int, cum_hi: int, total: int) -> None:
        """Encode one symbol occupying ``[cum_lo, cum_hi)`` of ``total``."""
        if self._finished:
            raise RuntimeError("encoder already finished")
        if not (0 <= cum_lo < cum_hi <= total):
            raise ValueError(
                f"invalid cumulative range ({cum_lo}, {cum_hi}, {total})")
        if total > MAX_TOTAL:
            raise ValueError(f"total {total} exceeds MAX_TOTAL {MAX_TOTAL}")
        span = self._high - self._low + 1
        self._high = self._low + (span * cum_hi) // total - 1
        self._low = self._low + (span * cum_lo) // total
        self._renormalize()

    def _emit(self, bit: int) -> None:
        self._bits.write(bit)
        if self._pending:
            self._bits.write_run(bit ^ 1, self._pending)
            self._pending = 0

    def _renormalize(self) -> None:
        while True:
            if self._high < _HALF:
                self._emit(0)
            elif self._low >= _HALF:
                self._emit(1)
                self._low -= _HALF
                self._high -= _HALF
            elif self._low >= _QUARTER and self._high < _THREE_QUARTER:
                self._pending += 1
                self._low -= _QUARTER
                self._high -= _QUARTER
            else:
                return
            self._low <<= 1
            self._high = (self._high << 1) | 1

    def finish(self) -> bytes:
        """Terminate the stream and return the encoded bytes."""
        if self._finished:
            raise RuntimeError("encoder already finished")
        self._finished = True
        self._pending += 1
        if self._low < _QUARTER:
            self._emit(0)
        else:
            self._emit(1)
        return self._bits.getvalue()


class ArithmeticDecoder:
    """Streaming arithmetic decoder mirroring :class:`ArithmeticEncoder`."""

    def __init__(self, data: bytes) -> None:
        self._reader = BitReader(data)
        self._low = 0
        self._high = _FULL
        self._value = 0
        for _ in range(PRECISION):
            self._value = (self._value << 1) | self._reader.read()

    def decode_target(self, total: int) -> int:
        """Return a value in ``[0, total)`` locating the next symbol.

        The caller maps it to a symbol via its cumulative table (e.g.
        ``np.searchsorted``) and then calls :meth:`advance`.
        """
        span = self._high - self._low + 1
        target = ((self._value - self._low + 1) * total - 1) // span
        if target < 0 or target >= total:
            raise ValueError("corrupted stream: target out of range")
        return target

    def advance(self, cum_lo: int, cum_hi: int, total: int) -> None:
        """Consume the symbol identified by ``(cum_lo, cum_hi, total)``."""
        span = self._high - self._low + 1
        self._high = self._low + (span * cum_hi) // total - 1
        self._low = self._low + (span * cum_lo) // total
        while True:
            if self._high < _HALF:
                pass
            elif self._low >= _HALF:
                self._low -= _HALF
                self._high -= _HALF
                self._value -= _HALF
            elif self._low >= _QUARTER and self._high < _THREE_QUARTER:
                self._low -= _QUARTER
                self._high -= _QUARTER
                self._value -= _QUARTER
            else:
                return
            self._low <<= 1
            self._high = (self._high << 1) | 1
            self._value = (self._value << 1) | self._reader.read()


def encode_symbols(symbols, cumulative, contexts) -> bytes:
    """Encode ``symbols[i]`` under ``cumulative[contexts[i]]``, one
    :meth:`ArithmeticEncoder.encode` call per symbol."""
    enc = ArithmeticEncoder()
    for s, c in zip(symbols, contexts):
        row = cumulative[c]
        enc.encode(int(row[s]), int(row[s + 1]), int(row[-1]))
    return enc.finish()


def decode_symbols(data: bytes, cumulative, contexts) -> list:
    """Inverse of :func:`encode_symbols`, one ``searchsorted`` and one
    :meth:`ArithmeticDecoder.advance` per symbol."""
    dec = ArithmeticDecoder(data)
    out = []
    for c in contexts:
        row = cumulative[c]
        total = int(row[-1])
        target = dec.decode_target(total)
        s = int(np.searchsorted(row, target, side="right")) - 1
        dec.advance(int(row[s]), int(row[s + 1]), total)
        out.append(s)
    return out
