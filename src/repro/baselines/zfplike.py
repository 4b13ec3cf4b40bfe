"""ZFP-analogue: blockwise near-orthogonal transform coding.

ZFP [28] partitions data into 4^d blocks, applies a fast near-orthogonal
decorrelating transform and encodes coefficients by bit planes.  This
analogue keeps the essential structure for ``(T, H, W)`` stacks:

* non-overlapping ``4x4`` spatial blocks per frame,
* ZFP's forward lifting transform applied separably along both axes
  (the exact integer-friendly matrix from the ZFP paper, here in
  floating point),
* uniform coefficient quantization with a step chosen from the error
  bound and the transform's operator norm (giving a true pointwise
  bound, slightly conservative like fixed-accuracy ZFP),
* arithmetic coding of the quantized coefficients grouped by their
  within-block frequency (DC and AC bands get separate contexts).

Being transform-based with short blocks, it decorrelates less than the
prediction-based SZ analogue on smooth fields — reproducing the
SZ3-over-ZFP ordering the paper reports.
"""

from __future__ import annotations

import struct
from typing import Tuple

import numpy as np

from ..postprocess.coding import decode_ints, encode_ints

__all__ = ["ZFPLikeCompressor"]

_MAGIC = b"ZFL1"

# ZFP's near-orthogonal 4-point decorrelating transform.
_ZFP_T = np.array([
    [4, 4, 4, 4],
    [5, 1, -1, -5],
    [-4, 4, 4, -4],
    [-2, 6, -6, 2],
], dtype=np.float64) / 16.0
_ZFP_TI = np.linalg.inv(_ZFP_T)

#: Worst-case amplification ||T^-1||_inf used for the pointwise bound.
_INV_NORM = float(np.abs(np.kron(_ZFP_TI, _ZFP_TI)).sum(axis=1).max())


def _pad_to(x: np.ndarray, mult: int) -> np.ndarray:
    T, H, W = x.shape
    Hp, Wp = -(-H // mult) * mult, -(-W // mult) * mult
    if (Hp, Wp) == (H, W):
        return x
    return np.pad(x, ((0, 0), (0, Hp - H), (0, Wp - W)), mode="edge")


def _block_view(x: np.ndarray) -> np.ndarray:
    """(T, H, W) -> (T*nb, 4, 4) non-overlapping block rows."""
    T, H, W = x.shape
    return (x.reshape(T, H // 4, 4, W // 4, 4)
            .transpose(0, 1, 3, 2, 4)
            .reshape(-1, 4, 4))


def _unblock(blocks: np.ndarray, shape: Tuple[int, int, int]) -> np.ndarray:
    T, H, W = shape
    return (blocks.reshape(T, H // 4, W // 4, 4, 4)
            .transpose(0, 1, 3, 2, 4)
            .reshape(T, H, W))


def _qstep(eb: float) -> float:
    """Coefficient quantization step that keeps ``|x - x̂| <= eb``."""
    return 2.0 * eb / _INV_NORM


def _synthesize(q: np.ndarray, eb: float, shape: Tuple[int, int, int],
                padded_hw: Tuple[int, int]) -> np.ndarray:
    """Dequantize ``(nb, 16)`` block coefficients, invert, crop.

    The decoder's whole tail after entropy decoding; the encoder calls
    it on its own ``q`` so its reconstruction cannot drift from
    :meth:`ZFPLikeCompressor.decompress`.
    """
    T, H, W = shape
    coef = q.reshape(-1, 4, 4).astype(np.float64) * _qstep(eb)
    blocks = np.einsum("ij,bjk,lk->bil", _ZFP_TI, coef, _ZFP_TI,
                       optimize=True)
    padded = _unblock(blocks, (T,) + tuple(padded_hw))
    return padded[:, :H, :W]


class ZFPLikeCompressor:
    """Error-bounded transform compressor (ZFP family)."""

    name = "ZFP-like"

    def compress(self, frames: np.ndarray, error_bound: float) -> bytes:
        return self.encode(frames, error_bound)[0]

    def encode(self, frames: np.ndarray, error_bound: float
               ) -> Tuple[bytes, np.ndarray]:
        """:meth:`compress`, plus the decoder's exact reconstruction."""
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 3:
            raise ValueError(f"expected (T, H, W), got {frames.shape}")
        if error_bound <= 0:
            raise ValueError("error_bound must be positive")
        eb = float(error_bound)
        T, H, W = frames.shape
        padded = _pad_to(frames, 4)
        blocks = _block_view(padded)
        # separable transform: rows then columns
        coef = np.einsum("ij,bjk,lk->bil", _ZFP_T, blocks, _ZFP_T,
                         optimize=True)
        q = np.rint(coef / _qstep(eb)).astype(np.int64).reshape(-1, 16)
        header = _MAGIC + struct.pack("<IIIIId", T, H, W,
                                      padded.shape[1], padded.shape[2],
                                      eb)
        # separate contexts: DC coefficient vs the 15 AC coefficients
        payload = header + encode_ints(q[:, 0]) + encode_ints(q[:, 1:])
        return payload, _synthesize(q, eb, frames.shape, padded.shape[1:])

    def decompress(self, data: bytes) -> np.ndarray:
        if data[:4] != _MAGIC:
            raise ValueError("not a ZFP-like stream")
        T, H, W, Hp, Wp, eb = struct.unpack_from("<IIIIId", data, 4)
        pos = 4 + struct.calcsize("<IIIIId")
        dc, pos = decode_ints(data, pos)
        ac, pos = decode_ints(data, pos)
        q = np.empty((dc.size, 16), dtype=np.int64)
        q[:, 0] = dc
        q[:, 1:] = ac.reshape(dc.size, 15)
        return _synthesize(q, eb, (T, H, W), (Hp, Wp))
