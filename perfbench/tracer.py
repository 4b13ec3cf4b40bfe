"""Outside-in span tracer for the benchmark's traced runs.

The program carries no instrumentation of its own, so a traced run
wraps public layer boundaries from outside: class methods are replaced
on the class (methods resolve at call time), and module functions are
replaced in every loaded ``repro`` module that holds them by name,
because ``from x import f`` copies the reference into the importer.

Each thread keeps its own span stack.  A span's *self* time is its
duration minus the time its child spans cover, so nested layers
(``baselines`` -> ``postprocess`` -> ``entropy``) are never counted
twice; summed over all spans, self time equals the time the threads
spent inside traced code.  Spans whose name is in :data:`ROOTS` mark
work the benchmark can see but no layer claims; their self time is the
unattributed time.

None of this runs in an untraced run: :meth:`Tracer.install` patches
and :meth:`Tracer.uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: spans that open a thread's traced region without being a layer
ROOTS = ("bench.request", "runtime.task")


class Tracer:
    """Per-thread span stacks aggregated into per-layer totals."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []
        #: layer -> summed self seconds (all threads)
        self.self_s = defaultdict(float)
        #: layer -> summed seconds of outermost spans of that layer
        self.incl_s = defaultdict(float)
        #: layer -> completed spans
        self.calls = defaultdict(int)
        #: free-form counters (symbols, bytes, ...)
        self.counts = defaultdict(float)
        #: inclusive seconds of spans that ran on pool threads while
        #: an engine call was open (the engine's parallel work)
        self.pooled_s = defaultdict(float)
        self._engines = 0

    # -- spans ----------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def in_span(self, name: str) -> bool:
        """True if ``name`` is open on the calling thread's stack."""
        return any(frame[0] == name for frame in self._stack())

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def _enter(self, name: str):
        stack = self._stack()
        frame = [name, 0.0, time.perf_counter()]
        stack.append(frame)
        if name == "engine":
            with self._lock:
                self._engines += 1
        return frame

    def _exit(self, frame) -> None:
        seconds = time.perf_counter() - frame[2]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][1] += seconds
        outermost = not any(f[0] == frame[0] for f in stack)
        pooled = (threading.current_thread()
                  is not threading.main_thread())
        with self._lock:
            self.self_s[frame[0]] += seconds - frame[1]
            self.calls[frame[0]] += 1
            if frame[0] == "engine":
                self._engines -= 1
            if outermost:
                self.incl_s[frame[0]] += seconds
                if pooled and self._engines:
                    self.pooled_s[frame[0]] += seconds

    @contextmanager
    def span(self, name: str):
        """Open a span from the benchmark's own code."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def _wrapper(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(tracer) if callable(name) else name
            frame = tracer._enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    # -- patching -------------------------------------------------------
    def wrap_method(self, cls, attr: str, name, after=None) -> None:
        """Wrap ``cls.attr`` if ``cls`` itself defines it."""
        original = cls.__dict__.get(attr)
        if original is None:
            return
        if isinstance(original, (staticmethod, classmethod)):
            patched = type(original)(self._wrapper(original.__func__,
                                                   name, after))
        else:
            patched = self._wrapper(original, name, after)
        setattr(cls, attr, patched)
        self._undo.append((cls, attr, original))

    def wrap_function(self, fn, name, after=None) -> None:
        """Replace ``fn`` in every loaded ``repro`` module holding it."""
        patched = self._wrapper(fn, name, after)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, patched)
                    self._undo.append((module, attr, fn))

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------
    def unattributed_s(self) -> float:
        return sum(self.self_s.get(root, 0.0) for root in ROOTS)


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _entropy_encoded(tracer, args, result):
    symbols = len(args[1])
    tracer.count("entropy.symbols", symbols)
    tracer.count("entropy.bytes_out", len(result))


def _corrected(tracer, args, result):
    tracer.count("postprocess.bound_bytes", len(result.payload))


def _bytes_read(tracer, args, result):
    tracer.count("container.bytes_read", len(result))


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark reports on."""
    import repro.baselines as baselines
    from repro.codecs.base import Codec
    from repro.compression.vae import VAEHyperprior
    from repro.diffusion.ddpm import ConditionalDDPM
    from repro.entropy.backend import EntropyBackend
    from repro.pipeline import container, plan
    from repro.pipeline.engine import CodecEngine
    from repro.pipeline.multivar import MultiVarArchive
    from repro.pipeline.streaming import StreamArchive
    from repro.postprocess import coding
    from repro.postprocess.bound import ErrorBoundCorrector
    from repro.runtime import SweepJournal, TaskRuntime, task

    t = tracer
    t.wrap_function(task.run_task, "runtime.task")
    # the calling thread's wait for its pool
    t.wrap_method(TaskRuntime, "run", "runtime.wait")
    t.wrap_method(plan.ShardTask, "materialize", "data.materialize")
    t.wrap_function(plan.plan_shards, "plan.plan")
    t.wrap_function(plan.pack_shard_archive, "container.pack")
    for attr in ("compress_plan", "compress", "decompress"):
        t.wrap_method(CodecEngine, attr, "engine")
    for cls in _subclasses(Codec):
        t.wrap_method(cls, "compress_bounded", "codecs.compress")
        t.wrap_method(cls, "decompress", "codecs.decompress")

    def baseline_decode(tr):
        # a decode nested in a codec's compress rebuilds the
        # reconstruction the encoder already held
        return ("baselines.recon_decode" if tr.in_span("codecs.compress")
                else "baselines.decode")

    for cls_name in ("SZLikeCompressor", "ZFPLikeCompressor",
                     "MGARDLikeCompressor", "DPCMCompressor",
                     "FAZLikeCompressor", "TTHRESHLikeCompressor"):
        cls = getattr(baselines, cls_name)
        t.wrap_method(cls, "compress", "baselines.encode")
        t.wrap_method(cls, "decompress", baseline_decode)
    for cls in _subclasses(EntropyBackend):
        t.wrap_method(cls, "encode", "entropy.encode", _entropy_encoded)
        t.wrap_method(cls, "decode", "entropy.decode")
    t.wrap_function(coding.encode_ints, "postprocess.ints_encode")
    t.wrap_function(coding.decode_ints, "postprocess.ints_decode")
    t.wrap_method(ErrorBoundCorrector, "correct", "postprocess.correct",
                  _corrected)
    t.wrap_method(ErrorBoundCorrector, "apply", "postprocess.apply")
    t.wrap_method(ConditionalDDPM, "predict_noise", "diffusion.unet")
    t.wrap_method(VAEHyperprior, "compress", "vae.encode")
    t.wrap_method(VAEHyperprior, "decompress_latents", "vae.latent_decode")
    t.wrap_method(VAEHyperprior, "decode_latents", "vae.decode")
    t.wrap_function(container.read_index, "container.index")
    t.wrap_function(container.verify_member, "container.verify")
    t.wrap_method(container.FileSource, "read_at", "container.read",
                  _bytes_read)
    t.wrap_method(container.FileSource, "read_all", "container.read",
                  _bytes_read)
    for cls in (MultiVarArchive, StreamArchive):
        t.wrap_method(cls, "to_bytes", "container.pack")
        t.wrap_method(cls, "from_bytes", "container.unpack")
    t.wrap_method(SweepJournal, "record", "journal.record")
    return t


#: per-layer metrics only the served workload measures
SERVICE_LAYERS = ("service.queue_wait_s", "service.run_s",
                  "service.overhead_s", "service.cache_hit_frac",
                  "service.rejected", "service.hit_p50_s",
                  "generator.late_s")


def layer_metrics(tracer: Tracer, workers: int, extras: dict) -> dict:
    """Per-layer metrics of an in-process traced run.

    Times are self seconds summed over threads, except
    ``engine.wall_s`` (the engine calls' own wall time).  The parallel
    efficiency is codec time on pool threads during engine calls over
    engine wall time times the pool width.  Layers a workload never
    enters read 0.
    """
    s, n, c = tracer.self_s, tracer.calls, tracer.counts
    engine = tracer.incl_s.get("engine", 0.0)
    pooled = (tracer.pooled_s.get("codecs.compress", 0.0)
              + tracer.pooled_s.get("codecs.decompress", 0.0))
    symbols, coded = c.get("entropy.symbols", 0), c.get(
        "entropy.bytes_out", 0)
    out = {
        "entropy.encode_s": s["entropy.encode"],
        "entropy.decode_s": s["entropy.decode"],
        "entropy.calls": n["entropy.encode"] + n["entropy.decode"],
        "entropy.symbols": symbols,
        "entropy.bytes_out": coded,
        "entropy.bits_per_symbol": 8.0 * coded / symbols if symbols else 0.0,
        "baselines.encode_s": s["baselines.encode"],
        "baselines.decode_s": s["baselines.decode"],
        "baselines.recon_decode_s": s["baselines.recon_decode"],
        "codecs.compress_s": s["codecs.compress"],
        "codecs.decompress_s": s["codecs.decompress"],
        "engine.wall_s": engine,
        "runtime.parallel_eff": (pooled / (engine * workers)
                                 if engine else 0.0),
        "runtime.retries": 0,
        "runtime.wait_s": s["runtime.wait"],
        "data.materialize_s": s["data.materialize"],
        "plan.plan_s": s["plan.plan"],
        "journal.record_s": s["journal.record"],
        "journal.records": n["journal.record"],
        "diffusion.unet_s": s["diffusion.unet"],
        "diffusion.unet_calls": n["diffusion.unet"],
        "vae.encode_s": s["vae.encode"],
        "vae.latent_decode_s": s["vae.latent_decode"],
        "vae.decode_s": s["vae.decode"],
        "postprocess.correct_s": s["postprocess.correct"],
        "postprocess.apply_s": s["postprocess.apply"],
        "postprocess.bound_bytes": c.get("postprocess.bound_bytes", 0),
        "postprocess.ints_encode_s": s["postprocess.ints_encode"],
        "postprocess.ints_decode_s": s["postprocess.ints_decode"],
        "container.pack_s": s["container.pack"],
        "container.index_s": s["container.index"],
        "container.verify_s": s["container.verify"],
        "container.unpack_s": s["container.unpack"],
        "container.read_s": s["container.read"],
        "container.bytes_read": c.get("container.bytes_read", 0),
        "container.bytes_read_ratio": 0.0,
        "unattributed_s": tracer.unattributed_s(),
    }
    for name in SERVICE_LAYERS:
        out[name] = 0.0
    out.update(extras)
    return out
