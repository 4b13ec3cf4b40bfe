"""Rule-based codecs: the six error-bounded coder families.

Each class binds one baseline compressor family
(:mod:`repro.baselines`) to the unified :class:`~repro.codecs.base.
Codec` contract.  The *only* divergence these families ever had — the
``error_bound`` (pointwise) vs ``rmse_bound`` (TTHRESH) keyword and the
raw-``bytes`` return — is normalized here once: the shared
:class:`RuleBasedCodec` base maps the native ``bound`` onto the
underlying keyword declared by :attr:`RuleBasedCodec.bound_arg` and
wraps the stream into a :class:`~repro.codecs.base.CodecResult` with
honest end-to-end accounting (``latent_bytes`` is exactly
``len(payload)``).

Compression encodes once.  Every native compressor has
``encode(frames, bound) -> (payload, recon)``, where ``recon`` is the
reconstruction its own decoder would return, and the adapter reports
that as ``CodecResult.reconstruction`` instead of decoding the payload
it just wrote.  The closed-loop predictors (szlike, dpcm) already hold
it; the transform coders (zfplike, mgard, tthresh) run the same
dequantize/inverse-transform function as their decoder; fazlike's
wavelet branch is integer-reversible.  That ``recon`` is bitwise
``decompress(payload)`` is proven by
``tests/baselines/test_encoder_reconstruction.py``, and
``tests/baselines/test_wire_format.py`` pins the payload bytes.
"""

from __future__ import annotations

import time
from typing import Optional, Type

import numpy as np

from ..baselines import (DPCMCompressor, FAZLikeCompressor,
                         MGARDLikeCompressor, SZLikeCompressor,
                         TTHRESHLikeCompressor, ZFPLikeCompressor)
from ..metrics import CompressionAccounting, nrmse
from .base import Codec, CodecCapabilities, CodecResult
from .registry import register_codec

__all__ = ["RuleBasedCodec", "SZCodec", "ZFPCodec", "TTHRESHCodec",
           "MGARDCodec", "DPCMCodec", "FAZCodec"]


class RuleBasedCodec(Codec):
    """Shared adapter logic for the stateless rule-based coders."""

    #: native compressor class this codec drives
    impl_cls: Type = None
    #: keyword the native ``compress`` takes its bound under
    bound_arg: str = "error_bound"
    capabilities = CodecCapabilities(bound_kind="pointwise",
                                    requires_bound=True)

    def __init__(self, impl=None, *, original_dtype_bytes: int = 4,
                 **impl_kwargs):
        if impl is not None and impl_kwargs:
            raise ValueError("give either impl or constructor kwargs")
        if impl is None:
            self._spec_params = dict(impl_kwargs,
                                     original_dtype_bytes=original_dtype_bytes)
        self._impl = impl if impl is not None else self.impl_cls(
            **impl_kwargs)
        self.original_dtype_bytes = original_dtype_bytes

    @classmethod
    def wrap(cls, obj) -> Optional["RuleBasedCodec"]:
        """Adopt a native compressor instance (see ``as_codec``)."""
        if cls.impl_cls is not None and type(obj) is cls.impl_cls:
            return cls(impl=obj)
        return None

    # ------------------------------------------------------------------
    def compress(self, frames: np.ndarray, bound: Optional[float] = None,
                 *, seed: int = 0) -> CodecResult:
        frames = np.asarray(frames, dtype=np.float64)
        if bound is None:
            raise ValueError(
                f"{self.name} is an error-bounded coder and requires a "
                f"{self.capabilities.bound_kind} bound")
        t0 = time.perf_counter()
        payload, recon = self._impl.encode(
            frames, **{self.bound_arg: float(bound)})
        seconds = time.perf_counter() - t0
        acc = CompressionAccounting(
            original_bytes=frames.size * self.original_dtype_bytes,
            latent_bytes=len(payload))
        return CodecResult(codec=self.name, payload_bytes=payload,
                           reconstruction=recon, accounting=acc,
                           achieved_nrmse=nrmse(frames, recon),
                           seed=seed, encode_seconds=seconds)

    def decompress(self, payload: bytes) -> np.ndarray:
        return self._impl.decompress(payload)


# ----------------------------------------------------------------------
@register_codec("szlike")
class SZCodec(RuleBasedCodec):
    """SZ3 analogue: interpolation-predictive, pointwise-bounded."""

    impl_cls = SZLikeCompressor


@register_codec("zfplike")
class ZFPCodec(RuleBasedCodec):
    """ZFP analogue: blockwise transform coding, pointwise-bounded."""

    impl_cls = ZFPLikeCompressor


@register_codec("tthresh")
class TTHRESHCodec(RuleBasedCodec):
    """TTHRESH analogue: HOSVD transform coding, RMSE-bounded."""

    impl_cls = TTHRESHLikeCompressor
    bound_arg = "rmse_bound"
    capabilities = CodecCapabilities(bound_kind="rmse",
                                    requires_bound=True)


@register_codec("mgard")
class MGARDCodec(RuleBasedCodec):
    """MGARD analogue: multilevel hierarchy, pointwise, progressive."""

    impl_cls = MGARDLikeCompressor
    capabilities = CodecCapabilities(bound_kind="pointwise",
                                    requires_bound=True,
                                    progressive=True)

    def decompress(self, payload: bytes,
                   max_level: Optional[int] = None) -> np.ndarray:
        """Full decode, or a progressive view via ``max_level``."""
        return self._impl.decompress(payload, max_level=max_level)


@register_codec("dpcm")
class DPCMCodec(RuleBasedCodec):
    """Temporal DPCM predictor, pointwise-bounded."""

    impl_cls = DPCMCompressor
    min_frames = 1


@register_codec("fazlike")
class FAZCodec(RuleBasedCodec):
    """FAZ analogue: auto-tuned best-of {wavelet, predictor}."""

    impl_cls = FAZLikeCompressor
