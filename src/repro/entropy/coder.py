"""Symbol-stream coding on top of the arithmetic coder.

The models in this package (factorized prior, Gaussian conditional)
reduce to the same interface: every element of a tensor is an integer
*symbol* drawn from a finite alphabet with a per-context cumulative
frequency table.  :func:`encode_symbols` / :func:`decode_symbols` run
the arithmetic coder over such a stream.

Cumulative tables are integer arrays of shape ``(n_contexts,
alphabet + 1)`` with ``table[c, 0] == 0`` and ``table[c, -1] == total``.
Every symbol must have nonzero mass (the table builders in this package
guarantee that).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .rangecoder import (MAX_TOTAL, ArithmeticDecoder, ArithmeticEncoder,
                         EntropyDecodeError)

__all__ = ["encode_symbols", "decode_symbols", "pmf_to_cumulative",
           "check_contexts", "EntropyDecodeError"]


def check_contexts(contexts: np.ndarray, n_contexts: int) -> None:
    """Validate ``0 <= contexts < n_contexts``.

    Negative ids would silently wrap through numpy's fancy indexing and
    encode (or decode) under the *wrong* table — garbage streams with
    no error.  Every symbol-stream endpoint calls this before touching
    ``cumulative[contexts, ...]``.
    """
    if contexts.size and (contexts.min() < 0
                          or contexts.max() >= n_contexts):
        raise ValueError(
            f"context id out of range [0, {n_contexts}): "
            f"[{contexts.min()}, {contexts.max()}]")


def pmf_to_cumulative(pmf: np.ndarray, total: int = MAX_TOTAL) -> np.ndarray:
    """Quantize probability rows to integer cumulative-frequency rows.

    Every symbol is guaranteed at least one count so it remains
    decodable; leftover mass is assigned proportionally (largest
    remainder method on the dominant symbol keeps this O(n)).

    Parameters
    ----------
    pmf:
        ``(n_contexts, alphabet)`` nonnegative rows (need not be
        normalized).
    total:
        Frequency denominator; must be ≥ alphabet and ≤
        :data:`repro.entropy.rangecoder.MAX_TOTAL`.
    """
    pmf = np.atleast_2d(np.asarray(pmf, dtype=np.float64))
    n_ctx, alphabet = pmf.shape
    if total > MAX_TOTAL:
        raise ValueError(f"total {total} exceeds coder limit {MAX_TOTAL}")
    if total < alphabet:
        raise ValueError(
            f"total {total} cannot give every one of {alphabet} symbols "
            "a nonzero count")
    norm = pmf.sum(axis=1, keepdims=True)
    if np.any(norm <= 0):
        raise ValueError("pmf row sums must be positive")
    scaled = pmf / norm * (total - alphabet)
    freqs = np.floor(scaled).astype(np.int64) + 1  # every symbol >= 1
    # Distribute the remaining counts to the most probable symbol of
    # each row so rows sum exactly to ``total``.
    deficit = total - freqs.sum(axis=1)
    top = np.argmax(freqs, axis=1)
    freqs[np.arange(n_ctx), top] += deficit
    cum = np.zeros((n_ctx, alphabet + 1), dtype=np.int64)
    np.cumsum(freqs, axis=1, out=cum[:, 1:])
    return cum


def encode_symbols(symbols: np.ndarray, cumulative: np.ndarray,
                   contexts: np.ndarray) -> bytes:
    """Arithmetic-encode ``symbols[i]`` under ``cumulative[contexts[i]]``.

    Parameters
    ----------
    symbols:
        1-D integer array; each value must lie in ``[0, alphabet)``.
    cumulative:
        ``(n_contexts, alphabet + 1)`` integer cumulative tables.
    contexts:
        1-D integer array, same length as ``symbols``.
    """
    symbols = np.asarray(symbols, dtype=np.int64).ravel()
    contexts = np.asarray(contexts, dtype=np.int64).ravel()
    if symbols.shape != contexts.shape:
        raise ValueError("symbols and contexts must have equal length")
    check_contexts(contexts, cumulative.shape[0])
    alphabet = cumulative.shape[1] - 1
    if symbols.size and (symbols.min() < 0 or symbols.max() >= alphabet):
        raise ValueError(
            f"symbol out of range [0, {alphabet}): "
            f"[{symbols.min()}, {symbols.max()}]")
    # Vectorized gather of all interval triples, then one coder loop.
    enc = ArithmeticEncoder()
    enc.encode_array(cumulative[contexts, symbols],
                     cumulative[contexts, symbols + 1],
                     cumulative[contexts, -1])
    return enc.finish()


def decode_symbols(data: bytes, cumulative: np.ndarray,
                   contexts: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_symbols` (requires the same contexts).

    Raises :class:`EntropyDecodeError` when a decoded target falls
    outside its table.  Only a malformed table gets there (a zero
    total, say): with a valid one the decoder's value never leaves its
    interval, whatever the bytes, so corrupted bytes decode to
    different symbols, not errors.
    """
    contexts = np.asarray(contexts, dtype=np.int64).ravel()
    check_contexts(contexts, cumulative.shape[0])
    rows = np.asarray(cumulative).tolist()
    totals = [row[-1] for row in rows]
    out = ArithmeticDecoder(data).decode_rows(rows, totals,
                                              contexts.tolist())
    return np.array(out, dtype=np.int64)
