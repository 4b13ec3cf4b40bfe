"""Bit-level I/O: an MSB-first bit writer and reader.

A public utility: the arithmetic coder keeps integer bit buffers of
its own (:mod:`repro.entropy.rangecoder`), which take a whole shared
prefix per symbol.
"""

from __future__ import annotations

__all__ = ["BitWriter", "BitReader"]


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
