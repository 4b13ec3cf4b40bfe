"""DPCM-analogue: closed-loop temporal prediction, pointwise bounded.

Differential Pulse Code Modulation [31] encodes the difference between
successive values.  For spatiotemporal stacks the natural DPCM axis is
time: each frame is predicted from the *reconstructed* previous frames
and only the prediction residual is quantized (linear grid of width
``2 * eb``) and entropy coded.  Because the loop is closed — the
encoder's predictor sees exactly what the decoder will see — the
pointwise bound ``|x - x̂|_inf <= eb`` holds by construction.

Two predictor orders are provided:

* order 1: ``x̂_t = x̂_{t-1}`` (classic DPCM);
* order 2: ``x̂_t = 2 x̂_{t-1} - x̂_{t-2}`` (linear extrapolation,
  which exploits the smooth temporal advection of scientific fields).

This is the weakest member of the rule-based family — it ignores all
spatial correlation — and serves as the floor the multilevel methods
(:mod:`~repro.baselines.szlike`, :mod:`~repro.baselines.mgard`) are
measured against.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

import numpy as np

from ..postprocess.coding import decode_ints, encode_ints

__all__ = ["DPCMCompressor"]

_MAGIC = b"DPC1"
_HDR = "<IIIId"  # T, H, W, order, eb


class DPCMCompressor:
    """Temporal-predictive error-bounded coder (DPCM family).

    Parameters
    ----------
    order:
        Predictor order, 1 (previous frame) or 2 (linear extrapolation).
    """

    name = "DPCM"

    def __init__(self, order: int = 2):
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        self.order = order

    # ------------------------------------------------------------------
    def compress(self, frames: np.ndarray, error_bound: float) -> bytes:
        """Compress with pointwise absolute bound ``error_bound``."""
        return self.encode(frames, error_bound)[0]

    def encode(self, frames: np.ndarray, error_bound: float
               ) -> Tuple[bytes, np.ndarray]:
        """:meth:`compress`, plus the closed-loop reconstruction.

        The predictor runs on reconstructed frames, so the ``recon``
        built here is bitwise what :meth:`decompress` returns.
        """
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 3:
            raise ValueError(f"expected (T, H, W), got {frames.shape}")
        if error_bound <= 0:
            raise ValueError("error_bound must be positive")
        eb = float(error_bound)
        T = frames.shape[0]
        recon = np.empty_like(frames)
        chunks: List[np.ndarray] = []
        for t in range(T):
            pred = self._predict(recon, t)
            q = np.rint((frames[t] - pred) / (2 * eb)).astype(np.int64)
            recon[t] = pred + q * (2 * eb)
            chunks.append(q.ravel())
        header = _MAGIC + struct.pack(_HDR, *frames.shape, self.order, eb)
        # one stream for all residual planes: the histogram header is
        # paid once and the alphabet is shared across time
        body = encode_ints(np.concatenate(chunks))
        return header + body, recon

    # ------------------------------------------------------------------
    def decompress(self, data: bytes) -> np.ndarray:
        if data[:4] != _MAGIC:
            raise ValueError("not a DPCM stream")
        T, H, W, order, eb = struct.unpack_from(_HDR, data, 4)
        pos = 4 + struct.calcsize(_HDR)
        q_all, pos = decode_ints(data, pos)
        q_all = q_all.reshape(T, H, W)
        recon = np.empty((T, H, W))
        # order comes from the stream, not self — decompress must stay
        # free of instance mutation so codec engines can run it from
        # several threads at once
        for t in range(T):
            recon[t] = (self._predict(recon, t, order=order)
                        + q_all[t] * (2 * eb))
        return recon

    # ------------------------------------------------------------------
    def _predict(self, recon: np.ndarray, t: int,
                 order: int = None) -> np.ndarray:
        """Predict frame ``t`` from already-reconstructed history."""
        order = self.order if order is None else order
        if t == 0:
            return np.zeros(recon.shape[1:])
        if t == 1 or order == 1:
            return recon[t - 1]
        return 2.0 * recon[t - 1] - recon[t - 2]
