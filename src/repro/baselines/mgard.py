"""MGARD-analogue: multilevel hierarchical coefficients, progressive.

MGARD [2, 13] transforms floating-point data into a hierarchy of
multilevel coefficients (differences between nodal values and their
multilinear interpolation from the next-coarser grid) and quantizes
each level against an error budget, which yields both rigorous error
control and progressive, resolution-by-resolution recovery.

This module implements that family for ``(T, H, W)`` stacks:

* level ``L`` (coarsest): the dyadic sub-lattice is quantized directly;
* level ``ℓ < L``: nodes new at level ``ℓ`` carry the difference
  between their value and the multilinear interpolation of the
  *original* coarser nodal values (open-loop, like MGARD's projection
  hierarchy — contrast with the closed-loop prediction of
  :mod:`repro.baselines.szlike`);
* each level is quantized with its own step from a geometric budget
  split.  Multilinear interpolation is a convex combination, so a
  coarse-level pointwise error never amplifies when propagated to
  finer levels; the triangle inequality over levels gives the global
  pointwise guarantee ``|x - x̂|_inf <= eb``.

Progressive recovery: :meth:`MGARDLikeCompressor.decompress` takes
``max_level`` and reconstructs the data as seen from that level of the
hierarchy (finer corrections left at their interpolated prediction),
exactly how MGARD serves reduced-resolution queries.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["MGARDLikeCompressor"]

from ..postprocess.coding import decode_ints, encode_ints

_MAGIC = b"MGD1"
_HDR = "<IIIIdd"  # T, H, W, levels, eb, budget_ratio


def _level_mask(shape: Tuple[int, ...], level: int) -> np.ndarray:
    """Boolean mask of nodes that exist on the level-``level`` lattice."""
    step = 2 ** level
    mask = np.zeros(shape, dtype=bool)
    mask[tuple(slice(None, None, step) for _ in shape)] = True
    return mask


def _interpolate_from_level(values: np.ndarray, level: int) -> np.ndarray:
    """Multilinear interpolation of the level-``level`` lattice to all nodes.

    ``values`` holds valid data on the level lattice (stride
    ``2**level`` along each axis); everywhere else it is ignored.  The
    interpolation proceeds axis by axis, halving the stride: midpoints
    get the mean of their two lattice neighbours (boundary midpoints
    copy their single neighbour).  All operations are whole-lattice
    slices — no per-element loops.
    """
    out = values.copy()
    step = 2 ** level
    while step > 1:
        half = step // 2
        for axis in range(out.ndim):
            n = out.shape[axis]
            odd = np.arange(half, n, step)
            if odd.size == 0:
                continue

            def take(idx, a=axis, s=step, h=half):
                sl = []
                for ax in range(out.ndim):
                    if ax == a:
                        sl.append(idx)
                    elif ax < a:
                        sl.append(slice(None, None, h))
                    else:
                        sl.append(slice(None, None, s))
                return tuple(sl)

            left = out[take(odd - half)]
            valid = odd + half < n
            right_pos = np.where(valid, odd + half, odd - half)
            right = out[take(right_pos)]
            out[take(odd)] = 0.5 * (left + right)
        step = half
    return out


def _budgets(eb: float, levels: int, ratio: float) -> List[float]:
    """Per-level pointwise budgets, coarsest first, summing to <= eb.

    Geometric split: level L gets the biggest slice.  The sum over all
    ``levels + 1`` entries (coarse lattice + each refinement) is ``eb``
    exactly, so the triangle inequality closes the proof.
    """
    weights = np.array([ratio ** i for i in range(levels + 1)])
    return list(eb * weights / weights.sum())


def _synthesize(chunks: List[np.ndarray], shape: Tuple[int, ...],
                levels: int, budgets: List[float],
                stop_level: int = 0) -> np.ndarray:
    """Dequantize the level coefficients and rebuild the hierarchy.

    ``chunks`` holds the coarse lattice followed by one coefficient
    array per refinement level, coarse-to-fine.  Corrections of levels
    finer than ``stop_level`` are dropped and those nodes keep their
    interpolated prediction.  Both the encoder and
    :meth:`MGARDLikeCompressor.decompress` end here, so the encoder's
    reconstruction is bitwise the decoder's.
    """
    recon = np.zeros(shape)
    cs = 2 ** levels
    recon[::cs, ::cs, ::cs] = (
        chunks[0].reshape(recon[::cs, ::cs, ::cs].shape) * (2 * budgets[0]))

    for li, level in enumerate(range(levels, 0, -1)):
        pred = _interpolate_from_level(recon, level)
        new_nodes = _level_mask(shape, level - 1) & ~_level_mask(
            shape, level)
        if level - 1 >= stop_level:
            recon[new_nodes] = (pred[new_nodes]
                                + chunks[li + 1] * (2 * budgets[li + 1]))
        else:
            recon[new_nodes] = pred[new_nodes]
    if stop_level > 0:
        # nodes finer than stop_level were never filled; fill by
        # interpolation so the output is a smooth coarse view
        recon = _interpolate_from_level(recon, stop_level)
    return recon


class MGARDLikeCompressor:
    """Multilevel error-bounded coder with progressive recovery.

    Parameters
    ----------
    levels:
        Hierarchy depth; the coarsest lattice has stride ``2**levels``.
    budget_ratio:
        Geometric decay of the per-level error budget (coarser levels
        get the larger share since their errors are interpolated into
        everything below them).
    """

    name = "MGARD-like"

    def __init__(self, levels: int = 3, budget_ratio: float = 0.5):
        if levels < 1:
            raise ValueError("levels must be >= 1")
        if not (0.0 < budget_ratio < 1.0):
            raise ValueError("budget_ratio must be in (0, 1)")
        self.levels = levels
        self.budget_ratio = budget_ratio

    # ------------------------------------------------------------------
    def compress(self, frames: np.ndarray, error_bound: float) -> bytes:
        """Compress with pointwise absolute bound ``error_bound``."""
        return self.encode(frames, error_bound)[0]

    def encode(self, frames: np.ndarray, error_bound: float
               ) -> Tuple[bytes, np.ndarray]:
        """:meth:`compress`, plus the decoder's exact full-resolution
        reconstruction."""
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 3:
            raise ValueError(f"expected (T, H, W), got {frames.shape}")
        if error_bound <= 0:
            raise ValueError("error_bound must be positive")
        eb = float(error_bound)
        ratio = float(self.budget_ratio)
        budgets = _budgets(eb, self.levels, ratio)

        chunks: List[np.ndarray] = []
        # coarsest lattice, quantized directly
        cs = 2 ** self.levels
        coarse = frames[::cs, ::cs, ::cs]
        q0 = np.rint(coarse / (2 * budgets[0])).astype(np.int64)
        chunks.append(q0.ravel())

        # hierarchical coefficients, coarse-to-fine (open loop: the
        # prediction interpolates ORIGINAL coarser values, so every
        # level's coefficients are independent of quantization choices)
        for li, level in enumerate(range(self.levels, 0, -1)):
            pred = _interpolate_from_level(frames, level)
            new_nodes = _level_mask(frames.shape, level - 1) & ~_level_mask(
                frames.shape, level)
            coeff = frames[new_nodes] - pred[new_nodes]
            q = np.rint(coeff / (2 * budgets[li + 1])).astype(np.int64)
            chunks.append(q)

        header = _MAGIC + struct.pack(_HDR, *frames.shape, self.levels, eb,
                                      ratio)
        body = b"".join(encode_ints(c) for c in chunks)
        recon = _synthesize(chunks, frames.shape, self.levels, budgets)
        return header + body, recon

    # ------------------------------------------------------------------
    def decompress(self, data: bytes,
                   max_level: Optional[int] = None) -> np.ndarray:
        """Reconstruct; ``max_level`` (0 = full) truncates the hierarchy.

        With ``max_level = k`` the corrections of levels finer than
        ``k`` are dropped and those nodes keep their interpolated
        prediction — the progressive/multiresolution read MGARD serves.
        """
        if data[:4] != _MAGIC:
            raise ValueError("not an MGARD-like stream")
        T, H, W, levels, eb, ratio = struct.unpack_from(_HDR, data, 4)
        pos = 4 + struct.calcsize(_HDR)
        stop_level = 0 if max_level is None else int(max_level)
        if not (0 <= stop_level <= levels):
            raise ValueError(f"max_level must be in [0, {levels}]")
        chunks = []
        for _ in range(levels + 1):
            q, pos = decode_ints(data, pos)
            chunks.append(q)
        return _synthesize(chunks, (T, H, W), levels,
                           _budgets(eb, levels, ratio), stop_level)
