"""The unified codec contract every compressor in this repo satisfies.

Historically each baseline exposed a slightly different ad-hoc
``compress`` signature: pointwise coders took ``error_bound`` and
returned raw ``bytes``, TTHRESH took ``rmse_bound``, the learned
baselines took ``error_bound``/``nrmse_bound`` and returned a result
object without any serialized stream, and the latent-diffusion pipeline
took ``noise_seed`` and returned a :class:`~repro.pipeline.blob.
CompressedBlob`.  Benchmarks and the CLI hand-wired every one of them.

This module defines the single contract that replaces that divergence:

* :class:`Codec` — ``compress(frames, bound) -> CodecResult`` and
  ``decompress(payload) -> frames``, where ``payload`` is always a
  self-contained byte string and ``bound`` is expressed in the codec's
  *native* guarantee metric (declared by its capabilities);
* :class:`CodecCapabilities` — what kind of bound the codec guarantees
  (``pointwise`` / ``rmse`` / ``l2``), whether it needs training,
  whether decoding is deterministic;
* :meth:`Codec.compress_bounded` — the one place where caller-side
  bound vocabulary (a first-class :class:`~repro.bound.Bound`, or the
  legacy ``error_bound`` / ``nrmse_bound`` kwargs) is normalized onto
  each codec's native bound, so callers never special-case bound
  semantics again;
* a tiny *envelope* format that tags a payload with its codec name, so
  archives and the CLI can dispatch streams back to the right codec.

The conversion table itself lives in :mod:`repro.bound` — one place,
shared by every layer.  The legacy kwargs map onto it exactly
(``error_bound`` -> ``Bound.l2``, ``nrmse_bound`` -> ``Bound.nrmse``),
so streams produced either way are byte-identical.
"""

from __future__ import annotations

import abc
import struct
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

import numpy as np

from ..bound import Bound
from ..metrics import CompressionAccounting

__all__ = ["Codec", "CodecCapabilities", "CodecResult", "Bound",
           "pack_envelope", "unpack_envelope", "is_envelope",
           "ENVELOPE_MAGIC"]

#: Bound kinds a codec may declare.
BOUND_KINDS = ("pointwise", "rmse", "l2")

ENVELOPE_MAGIC = b"CDX1"


@dataclass(frozen=True)
class CodecCapabilities:
    """Declared properties of a codec (used for dispatch, not hints)."""

    #: metric of the native guarantee: "pointwise" (max abs error),
    #: "rmse", or "l2" (absolute L2 norm, the pipeline's tau)
    bound_kind: str
    #: the codec holds model state that must be trained before use
    needs_training: bool = False
    #: ``decompress(payload)`` is bit-identical across calls
    deterministic: bool = True
    #: the codec cannot compress without a bound (rule-based coders
    #: quantize against the bound; there is no "lossless-ish" default)
    requires_bound: bool = False
    #: learning-based family (stores latents for every frame)
    learned: bool = False
    #: supports reduced-resolution/progressive decodes
    progressive: bool = False

    def __post_init__(self):
        if self.bound_kind not in BOUND_KINDS:
            raise ValueError(f"bound_kind must be one of {BOUND_KINDS}, "
                             f"got {self.bound_kind!r}")


@dataclass
class CodecResult:
    """Outcome of :meth:`Codec.compress` — uniform across all codecs.

    ``payload`` is the self-contained compressed stream.  Codecs whose
    native result already carries a serializable blob (``detail.blob``)
    may leave ``payload_bytes`` unset — serialization then happens
    lazily on first access, so blob-native callers (window-parallel
    batches, blob archives) never pay for bytes they discard.
    """

    codec: str                       # registry name of the producer
    reconstruction: np.ndarray       # the decompressor's exact output
    accounting: CompressionAccounting
    achieved_nrmse: float
    seed: int = 0
    encode_seconds: float = 0.0
    #: the codec-native result object (e.g. the pipeline's
    #: CompressionResult with its CompressedBlob), when one exists
    detail: Any = None
    #: eagerly-built stream; None defers to ``detail.blob.to_bytes()``
    payload_bytes: Optional[bytes] = None

    @property
    def payload(self) -> bytes:
        """Self-contained compressed stream (built lazily if needed)."""
        if self.payload_bytes is None:
            blob = self.blob
            if blob is None:
                raise ValueError(
                    f"{self.codec} result carries no payload")
            self.payload_bytes = blob.to_bytes()
        return self.payload_bytes

    @property
    def ratio(self) -> float:
        return self.accounting.ratio

    @property
    def blob(self):
        """Native :class:`CompressedBlob` if the codec produced one."""
        return getattr(self.detail, "blob", None)


class Codec(abc.ABC):
    """Abstract compressor contract (see module docstring).

    Subclasses set :attr:`capabilities` and implement
    :meth:`compress` / :meth:`decompress`.  ``compress`` must return a
    :class:`CodecResult` whose ``payload`` decodes — via
    :meth:`decompress` on the *same* codec instance — to exactly the
    ``reconstruction`` it reports.  That reconstruction may come from
    the encoder itself rather than from decoding the payload: the
    rule-based codecs take it from their native ``encode``, and
    ``tests/baselines/test_encoder_reconstruction.py`` proves it is
    bitwise ``decompress(payload)`` for every codec, entropy backend,
    bound and shape it covers.
    """

    #: registry name; assigned by :func:`repro.codecs.register_codec`
    codec_id: str = "unregistered"
    capabilities: CodecCapabilities = CodecCapabilities(bound_kind="l2")
    #: smallest frame count ``compress`` accepts
    min_frames: int = 1
    #: natural temporal batching unit (1 = frames are independent)
    window: int = 1
    #: path of the artifact this codec's trained state was saved to or
    #: loaded from (set by the artifact layer; makes trained codecs
    #: spec-portable — see :meth:`to_spec`)
    _artifact: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Registry name (stable identifier, used in envelopes)."""
        return self.codec_id

    @property
    def label(self) -> str:
        """Human-readable name (matches the paper's method names)."""
        impl = getattr(self, "_impl", None)
        return getattr(impl, "name", None) or self.codec_id

    @property
    def impl(self):
        """Underlying native compressor object, when one exists."""
        return getattr(self, "_impl", None)

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def compress(self, frames: np.ndarray, bound: Optional[float] = None,
                 *, seed: int = 0) -> CodecResult:
        """Compress a ``(T, H, W)`` stack under the *native* bound."""

    @abc.abstractmethod
    def decompress(self, payload: bytes) -> np.ndarray:
        """Reconstruct frames from a :attr:`CodecResult.payload`."""

    # ------------------------------------------------------------------
    def native_bound(self, frames: np.ndarray,
                     error_bound: Optional[float] = None,
                     nrmse_bound: Optional[float] = None,
                     bound: Optional[Bound] = None) -> Optional[float]:
        """Map caller bound vocabulary onto this codec's native metric.

        ``bound`` is a first-class :class:`~repro.bound.Bound`;
        ``error_bound`` is the legacy absolute L2 ``tau`` and
        ``nrmse_bound`` the legacy NRMSE target (Eq. 12).  The
        conversion table lives in :mod:`repro.bound`.
        """
        target = Bound.coalesce(bound=bound, error_bound=error_bound,
                                nrmse_bound=nrmse_bound)
        if target is None:
            return None
        return target.native_for(self, frames)

    def compress_bounded(self, frames: np.ndarray,
                         error_bound: Optional[float] = None,
                         nrmse_bound: Optional[float] = None,
                         seed: int = 0, *,
                         bound: Optional[Bound] = None) -> CodecResult:
        """:meth:`compress` with a :class:`Bound` (or the legacy
        kwargs), normalized onto the native metric."""
        native = self.native_bound(frames, error_bound=error_bound,
                                   nrmse_bound=nrmse_bound, bound=bound)
        return self.compress(frames, native, seed=seed)

    # ------------------------------------------------------------------
    def to_spec(self) -> dict:
        """Portable ``{"codec": name, "params": kwargs}`` recipe.

        The spec is picklable and cheap to ship to process-pool
        workers, where :func:`repro.codecs.codec_from_spec` rebuilds an
        equivalent codec (bit-identical for stateless codecs and for
        untrained learned codecs, whose weight init is seeded by
        config).  A codec whose trained state lives in an artifact
        (saved via :meth:`save_artifact` or loaded via
        :meth:`load_artifact`) instead records the artifact path —
        workers rebuild the trained codec from ``spec + artifact``.
        Trained state that was never persisted, and codecs adopted
        around pre-built native objects, raise ``TypeError``.
        """
        params = getattr(self, "_spec_params", None)
        if params is not None:
            return {"codec": self.codec_id, "params": dict(params)}
        if self._artifact is not None:
            return {"codec": self.codec_id, "artifact": self._artifact}
        raise TypeError(
            f"{type(self).__name__} ({self.name!r}) holds wrapped "
            f"or trained state that a spec cannot rebuild; save the "
            f"trained model to an artifact (Codec.save_artifact / "
            f"ArtifactStore.put) to make it spec-portable, or "
            f"construct the codec from kwargs (get_codec)")

    @staticmethod
    def from_spec(spec: dict) -> "Codec":
        """Inverse of :meth:`to_spec` (dispatches via the registry)."""
        from .registry import codec_from_spec  # local: registry imports base
        return codec_from_spec(spec)

    # ------------------------------------------------------------------
    # Trained-state artifacts (uniform persistence contract).
    # ------------------------------------------------------------------
    def artifact_state(self) -> dict:
        """Trained state as ``{name: ndarray}`` (subclass hook).

        Implemented by every codec with the ``needs_training``
        capability; the default makes the contract explicit for
        model-free codecs.
        """
        raise TypeError(f"codec {self.name!r} has no trainable state "
                        f"to persist")

    def load_artifact_state(self, state: dict) -> None:
        """Restore :meth:`artifact_state` arrays in place."""
        raise TypeError(f"codec {self.name!r} has no trainable state "
                        f"to restore")

    def artifact_params(self) -> dict:
        """Constructor kwargs recorded in an artifact manifest.

        The untrained-rebuild recipe: ``get_codec(name, **params)``
        followed by :meth:`load_artifact_state` must reproduce this
        codec exactly.  Defaults to the construction kwargs (which,
        unlike ``_spec_params``, survive training); wrapped codecs
        without a recorded recipe raise.
        """
        params = getattr(self, "_spec_params", None)
        if params is None:
            params = getattr(self, "_init_params", None)
        if params is None:
            raise TypeError(
                f"{type(self).__name__} ({self.name!r}) wraps a "
                f"pre-built native object; no constructor recipe is "
                f"available for an artifact manifest")
        return dict(params)

    def save_artifact(self, path, *, training: Optional[dict] = None,
                      dataset: Optional[dict] = None):
        """Persist trained state (see :mod:`repro.pipeline.artifacts`).

        Returns the :class:`~repro.pipeline.artifacts.ArtifactManifest`
        and attaches the artifact path to this codec, making it
        spec-portable (:meth:`to_spec`).
        """
        from ..pipeline.artifacts import save_artifact
        return save_artifact(path, self, training=training,
                             dataset=dataset)

    @staticmethod
    def load_artifact(path) -> "Codec":
        """Rebuild a trained codec from an artifact file."""
        from ..pipeline.artifacts import load_artifact
        return load_artifact(path)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<{type(self).__name__} {self.name!r} "
                f"({self.capabilities.bound_kind}-bounded)>")


# ----------------------------------------------------------------------
# Envelope: tags a payload with its codec so containers can dispatch.
# ----------------------------------------------------------------------
def pack_envelope(codec_name: str, payload: bytes) -> bytes:
    """Wrap ``payload`` in a self-describing codec envelope."""
    tag = codec_name.encode()
    if not 0 < len(tag) <= 255:
        raise ValueError(f"bad codec name {codec_name!r}")
    return b"".join([ENVELOPE_MAGIC, struct.pack("<B", len(tag)), tag,
                     struct.pack("<Q", len(payload)), payload])


def is_envelope(data: bytes) -> bool:
    return data[:4] == ENVELOPE_MAGIC


def peek_envelope(data: bytes) -> Optional[str]:
    """Codec name of an envelope without copying its payload.

    Container indexers call this on every member at pack time, so it
    must parse the header only — :func:`unpack_envelope` slices (and
    therefore copies) the payload.  Returns ``None`` for non-envelope
    bytes.
    """
    if not is_envelope(data) or len(data) < 5:
        return None
    tlen, = struct.unpack_from("<B", data, 4)
    if len(data) < 5 + tlen:
        return None
    return data[5:5 + tlen].decode()


def unpack_envelope(data: bytes) -> Tuple[str, bytes]:
    """Inverse of :func:`pack_envelope`; returns ``(name, payload)``."""
    if not is_envelope(data):
        raise ValueError("not a codec envelope (bad magic)")
    tlen, = struct.unpack_from("<B", data, 4)
    name = data[5:5 + tlen].decode()
    pos = 5 + tlen
    n, = struct.unpack_from("<Q", data, pos)
    pos += 8
    payload = data[pos:pos + n]
    if len(payload) != n:
        raise ValueError("truncated codec envelope")
    return name, payload
