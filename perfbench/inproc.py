"""The three in-process workloads, each a closed loop with one client
driving ``repro.api.Session``.

A workload is a *cycle*: a fixed list of operations built from the
seed.  The loop runs whole cycles until ``--seconds`` have passed, so
every run measures the same mix and ``ratio`` is exact; see
:func:`summarize` for how the cycles reduce to one figure each.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from common import SpeedGauge, bound_violations, median

MB = 1e6


@dataclass
class Op:
    """One timed operation and the bytes it moved."""

    latency: float
    raw_bytes: int = 0        # float32 bytes into a compress
    compress_s: float = 0.0
    archive_bytes: int = 0
    out_bytes: int = 0        # float32 bytes out of a decompress
    decompress_s: float = 0.0
    timed: bool = True        # counts towards the latency metric


def f32_bytes(array) -> int:
    """Size of an array counted as float32 values (the input unit)."""
    if isinstance(array, dict):
        return sum(f32_bytes(a) for a in array.values())
    return int(np.asarray(array).size) * 4


class Clock:
    """Times a call, inside a ``bench.request`` span when tracing, and
    samples the speed gauge right before it, while the program is
    idle."""

    def __init__(self):
        self.tracer = None
        self.gauge = SpeedGauge()

    def __call__(self, fn: Callable):
        self.gauge.sample()
        t0 = time.perf_counter()
        if self.tracer is None:
            result = fn()
        else:
            with self.tracer.span("bench.request"):
                result = fn()
        return result, time.perf_counter() - t0


def run_cycles(cycle: Callable[[int], List[Op]], seconds: float,
               count: Optional[int] = None) -> List[List[Op]]:
    """Whole cycles until ``seconds`` pass (or exactly ``count``)."""
    cycles: List[List[Op]] = []
    deadline = time.perf_counter() + seconds
    while True:
        cycles.append(cycle(len(cycles)))
        # one cycle's garbage must not decide when the next one collects
        gc.collect()
        if count is not None:
            if len(cycles) >= count:
                return cycles
        elif time.perf_counter() >= deadline:
            return cycles


def summarize(cycles: List[List[Op]],
              scale: float = 1.0) -> Dict[str, float]:
    """Robust per-run figures from whole cycles.

    Every cycle holds the same operations in the same order, so the
    operation at one position is the same work in every cycle.  Each
    position's times are reduced to their median over cycles first;
    a burst of load on a shared machine then moves a figure only if it
    hits that position in half the cycles.  Throughputs are bytes over
    those median times, summed over positions; the latency median is
    the median over positions, the upper of the middle two for an even
    count.  A pooled median, or the mean of the middle two, would fall
    in the gap between two kinds of operation and jump across it from
    run to run.  The tail is taken over every latency.  Every time is
    multiplied by ``scale`` (see :meth:`common.SpeedGauge.scale`).
    """
    by_pos = list(zip(*cycles))

    def med(attr):
        return [scale * median([getattr(op, attr) for op in ops])
                for ops in by_pos]

    first = cycles[0]
    c_secs, d_secs, lat = med("compress_s"), med("decompress_s"), med(
        "latency")
    raw = sum(op.raw_bytes for op in first)
    out = sum(op.out_bytes for op in first)
    return {"compress_mbps": raw / sum(c_secs) / MB,
            "decompress_mbps": out / sum(d_secs) / MB,
            "ratio": raw / sum(op.archive_bytes for op in first),
            "latency_p50_s": statistics.median_high(
                [t for t, op in zip(lat, first) if op.timed]),
            "latencies": [scale * o.latency for ops in cycles for o in ops
                          if o.timed],
            "wall": scale * sum(o.latency for ops in cycles for o in ops)}


def _fresh(workdir: str, name: str) -> str:
    path = os.path.join(workdir, name)
    if os.path.isdir(path):
        shutil.rmtree(path)
    os.makedirs(path)
    return path


# ----------------------------------------------------------------------
# rulebased-sweep
# ----------------------------------------------------------------------
RULE_CODECS = ("szlike", "zfplike", "mgard", "dpcm", "fazlike", "tthresh")
RULE_SHAPE = dict(t=12, h=24, w=24)
RULE_SHARDS = 3
RULE_NRMSE = 1e-2
#: pointwise bound as a share of the variable's value range
RULE_POINTWISE = 1e-2


class RulebasedSweep:
    """Plan-backed compress + full decompress over the six rule-based
    codecs, both bound kinds, two datasets; every other compress is a
    journaled ``Session.sweep``."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.clock = Clock()
        self.events: Dict[str, int] = {}

    def setup(self, workdir: str) -> None:
        from repro.api import Bound, Session
        from repro.data import get_dataset_spec
        ctx = self.ctx
        self.workdir = workdir
        self.session = Session(executor="thread", workers=ctx.nproc,
                               seed=ctx.seed)
        # every request draws its own data, so a run's figures average
        # over twelve inputs rather than hinging on one draw per dataset
        self.requests = []
        for k, codec in enumerate(RULE_CODECS):
            for j, kind in enumerate(("nrmse", "pointwise")):
                i = len(self.requests)
                name = ("e3sm", "jhtdb")[(k + j) % 2]
                spec = get_dataset_spec(name, seed=100 * ctx.seed + i,
                                        **RULE_SHAPE)
                frames = spec.build().frames(0)
                span = float(frames.max() - frames.min())
                bound = (Bound.nrmse(RULE_NRMSE) if kind == "nrmse" else
                         Bound.pointwise(
                             float(f"{RULE_POINTWISE * span:.3g}")))
                self.requests.append((codec, spec, frames, bound))
        # first use of each codec: codec cache, entropy tables and the
        # dataset generation cache fill here, not in the first cycle
        self.warmup = [self._run(i) for i in range(0, len(self.requests),
                                                    2)]

    def check_setup(self) -> None:
        for i, result in zip(range(0, len(self.requests), 2),
                             self.warmup):
            self._check(i, *result)

    def after_setup(self) -> None:
        pass

    def close(self) -> None:
        self.session.close()

    def _on_event(self, event) -> None:
        self.events[event.kind] = self.events.get(event.kind, 0) + 1

    def _run(self, i: int):
        codec, spec, _, bound = self.requests[i]
        session = self.session
        journal = None
        if i % 2:
            journal = os.path.join(_fresh(self.workdir, "journal"),
                                   "sweep.jsonl")

        def work():
            t0 = time.perf_counter()
            if journal is None:
                archive = session.compress(spec, codec=codec, bound=bound,
                                           shards=RULE_SHARDS,
                                           variables=[0])
            else:
                archive = session.sweep(spec, codec=codec, bound=bound,
                                        shards=RULE_SHARDS,
                                        variables=[0], journal=journal,
                                        on_event=self._on_event)
            t1 = time.perf_counter()
            recon = session.decompress(archive)
            return archive, recon, t1 - t0, time.perf_counter() - t1

        return self.clock(work)

    def _check(self, i: int, outputs, latency: float) -> Op:
        archive, recon, c_s, d_s = outputs
        codec, spec, frames, bound = self.requests[i]
        resolved = self.session.resolve_codec(codec)
        problems = []
        for m in archive.index():
            orig, rec = frames[m.t0:m.t1], recon[m.t0:m.t1]
            problems += bound_violations(
                orig, rec, bound, resolved.capabilities.bound_kind,
                bound.native_for(resolved, orig))
        data = archive.to_bytes()
        problems += self.ctx.ledger.check(
            [codec, spec, bound, RULE_SHARDS, i % 2], data)
        self.ctx.outcome.op(problems, f"{codec} {spec.name} {bound}")
        return Op(latency=latency, raw_bytes=f32_bytes(frames),
                  compress_s=c_s, archive_bytes=len(data),
                  out_bytes=f32_bytes(recon), decompress_s=d_s)

    def cycle(self, c: int) -> List[Op]:
        return [self._check(i, *self._run(i))
                for i in range(len(self.requests))]

    def layer_extras(self) -> Dict[str, float]:
        return {"runtime.retries": self.events.get("retrying", 0)}


# ----------------------------------------------------------------------
# ours-keyframe
# ----------------------------------------------------------------------
#: training recipe; fixed (not seed-derived) so every run trains the
#: same artifact
OURS_TRAIN = dict(shape=dict(t=24, h=16, w=16), data_seed=5,
                  vae_iters=60, diffusion_iters=150, stride=2, seed=0)
OURS_SHAPE = dict(t=12, h=32, w=32)   # two 6-frame windows per stack
#: stacks per cycle, each its own data draw, so ``ratio`` averages over
#: eight inputs
OURS_STACKS = 8
OURS_NRMSE = 5e-2


class OursKeyframe:
    """Train a tiny ``ours`` artifact, then compress + decompress
    multi-window one-variable stacks at a loose NRMSE bound."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.clock = Clock()

    def setup(self, workdir: str) -> None:
        from repro.api import Session
        from repro.data import get_dataset_spec
        ctx, cfg = self.ctx, OURS_TRAIN
        spec = get_dataset_spec("e3sm", seed=cfg["data_seed"],
                                **cfg["shape"])
        self.artifact = os.path.join(workdir, "ours.npz")
        with Session(executor="thread", workers=ctx.nproc) as trainer:
            trainer.train("ours", spec, save=self.artifact,
                          vae_iters=cfg["vae_iters"],
                          diffusion_iters=cfg["diffusion_iters"],
                          stride=cfg["stride"], seed=cfg["seed"])
        self.session = Session(artifact=self.artifact, executor="thread",
                               workers=ctx.nproc, seed=ctx.seed)

    def check_setup(self) -> None:
        with open(self.artifact, "rb") as fh:
            problems = self.ctx.ledger.check(["artifact", OURS_TRAIN],
                                             fh.read())
        self.ctx.outcome.op(problems, "training artifact")

    def after_setup(self) -> None:
        from repro.data import get_dataset_spec
        self.stacks = [
            get_dataset_spec("e3sm", seed=3000 + 10 * self.ctx.seed + i,
                             **OURS_SHAPE).build().frames(0)
            for i in range(OURS_STACKS)]

    def close(self) -> None:
        self.session.close()

    def _request(self, i: int) -> Op:
        from repro.api import Bound
        frames, session = self.stacks[i], self.session
        bound = Bound.nrmse(OURS_NRMSE)

        def work():
            t0 = time.perf_counter()
            archive = session.compress(frames, bound=bound)
            t1 = time.perf_counter()
            recon = session.decompress(archive)
            return archive, recon, t1 - t0, time.perf_counter() - t1

        (archive, recon, c_s, d_s), latency = self.clock(work)
        data = archive.to_bytes()
        problems = bound_violations(frames, recon, bound)
        problems += self.ctx.ledger.check(
            [OURS_TRAIN, OURS_SHAPE, OURS_NRMSE, self.ctx.seed, i], data)
        self.ctx.outcome.op(problems, f"ours stack {i}")
        return Op(latency=latency, raw_bytes=f32_bytes(frames),
                  compress_s=c_s, archive_bytes=len(data),
                  out_bytes=f32_bytes(recon), decompress_s=d_s)

    def cycle(self, c: int) -> List[Op]:
        return [self._request(i) for i in range(OURS_STACKS)]

    def layer_extras(self) -> Dict[str, float]:
        return {}


# ----------------------------------------------------------------------
# archive-reads
# ----------------------------------------------------------------------
READ_NRMSE = 1e-2
#: archives setup writes, per pinned entropy backend
READ_BACKENDS = ("arithmetic", "trans")
SHARD_SPEC = dict(name="e3sm", t=24, h=24, w=24, vars=[0, 1], shards=4,
                  codec="szlike")
MULTIVAR_SPEC = dict(name="jhtdb", t=16, h=24, w=24, codec="zfplike")
STREAM_SPEC = dict(name="s3d", t=24, h=24, w=24, codec="dpcm",
                   chunk_windows=6)


class ArchiveReads:
    """Partial (``select=``) decodes from archive files, with some full
    decodes and a minority of new multivar and stream writes."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.clock = Clock()

    def _inputs(self):
        from repro.data import get_dataset_spec
        seed = self.ctx.seed
        s = SHARD_SPEC
        shard_spec = get_dataset_spec(s["name"], t=s["t"], h=s["h"],
                                      w=s["w"], seed=4000 + seed)
        m = MULTIVAR_SPEC
        mv_ds = get_dataset_spec(m["name"], t=m["t"], h=m["h"], w=m["w"],
                                 seed=5000 + seed).build()
        multivar = {n: mv_ds.frames(v) for v, n in enumerate("uvw")}
        st = STREAM_SPEC
        stream = get_dataset_spec(st["name"], t=st["t"], h=st["h"],
                                  w=st["w"], seed=6000 + seed
                                  ).build().frames(0)
        return shard_spec, multivar, stream

    def _write(self, session, kind, backend, path):
        from repro.api import Bound
        bound = Bound.nrmse(READ_NRMSE)
        if kind == "shard":
            s = SHARD_SPEC
            archive = session.compress(
                self.shard_spec, codec=s["codec"], bound=bound,
                variables=s["vars"], shards=s["shards"],
                entropy_backend=backend)
        elif kind == "multivar":
            archive = session.compress(
                self.multivar, codec=MULTIVAR_SPEC["codec"], bound=bound,
                entropy_backend=backend)
        else:
            archive = session.compress(
                iter(self.stream), codec=STREAM_SPEC["codec"],
                bound=bound, chunk_windows=STREAM_SPEC["chunk_windows"],
                entropy_backend=backend)
        archive.save(path)
        return archive

    def _params(self, kind, backend):
        """Everything that determines an archive's bytes."""
        spec = {"shard": SHARD_SPEC, "multivar": MULTIVAR_SPEC,
                "stream": STREAM_SPEC}[kind]
        return [kind, backend, spec, READ_NRMSE, self.ctx.seed]

    def setup(self, workdir: str) -> None:
        from repro.api import Session
        self.workdir = workdir
        self.shard_spec, self.multivar, self.stream = self._inputs()
        self.session = Session(executor="thread", workers=self.ctx.nproc,
                               seed=self.ctx.seed)
        self.paths = {}
        for backend in READ_BACKENDS:
            for kind in ("shard", "multivar", "stream"):
                path = os.path.join(workdir, f"{kind}-{backend}.bin")
                self._write(self.session, kind, backend, path)
                self.paths[kind, backend] = path

    def check_setup(self) -> None:
        for (kind, backend), path in sorted(self.paths.items()):
            with open(path, "rb") as fh:
                problems = self.ctx.ledger.check(self._params(kind, backend),
                                                 fh.read())
            self.ctx.outcome.op(problems, f"setup {kind}-{backend}")

    def after_setup(self) -> None:
        """Check every archive once against the originals and keep its
        full decode as the reference for the loop's reads."""
        from repro.api import Archive, Bound
        bound = Bound.nrmse(READ_NRMSE)
        shard_frames = {v: self.shard_spec.build().frames(v)
                        for v in SHARD_SPEC["vars"]}
        self.reference = {}
        for (kind, backend), path in sorted(self.paths.items()):
            full = self.session.decompress(path)
            self.reference[kind, backend] = full
            problems = self._check_full(kind, Archive.open(path), full,
                                        bound, shard_frames)
            self.ctx.outcome.op(problems, f"decode {kind}-{backend}")
        self.select_read = self.select_size = 0
        # one seeded order of shard members and of slice starts, walked
        # in turn, so every run reads each of them about equally often
        rng = random.Random(self.ctx.seed * 7919)
        members = Archive.open(self.paths["shard", "trans"]).index()
        rng.shuffle(members)
        shard = SHARD_SPEC["t"] // SHARD_SPEC["shards"]
        # six frames from inside one shard into the next
        starts = [shard * k + o for k in range(SHARD_SPEC["shards"] - 1)
                  for o in range(1, shard)]
        rng.shuffle(starts)
        self.member_seq = {b: itertools.cycle(members)
                           for b in READ_BACKENDS}
        self.start_seq = {b: itertools.cycle(starts) for b in READ_BACKENDS}

    def _check_full(self, kind, archive, full, bound, shard_frames):
        problems = []
        if kind == "shard":
            for m in archive.index():
                problems += bound_violations(
                    shard_frames[m.variable][m.t0:m.t1],
                    full[m.variable][m.t0:m.t1], bound)
        elif kind == "multivar":
            for name, frames in self.multivar.items():
                problems += bound_violations(frames, full[name], bound)
        else:
            t0 = 0
            for shape, _ in archive.stream().envelopes:
                t1 = t0 + shape[0]
                problems += bound_violations(self.stream[t0:t1],
                                             full[t0:t1], bound)
                t0 = t1
            if t0 != len(self.stream):
                problems.append(f"stream holds {t0} of "
                                f"{len(self.stream)} frames")
        return problems

    def close(self) -> None:
        self.session.close()

    def _select(self, kind, backend, select, expected) -> Op:
        path = self.paths[kind, backend]
        tracer = self.clock.tracer
        if tracer is not None:
            before = tracer.counts["container.bytes_read"]
        out, latency = self.clock(
            lambda: self.session.decompress(path, select=select))
        if tracer is not None:
            self.select_read += tracer.counts["container.bytes_read"] - before
            self.select_size += os.path.getsize(path)
        if isinstance(expected, dict):
            same = (sorted(out) == sorted(expected) and all(
                np.array_equal(out[k], expected[k]) for k in expected))
        else:
            same = np.array_equal(out, expected)
        self.ctx.outcome.op(
            [] if same else ["differs from the full decode"],
            f"select {select!r} on {kind}-{backend}")
        return Op(latency=latency, out_bytes=f32_bytes(out),
                  decompress_s=latency)

    def _shard_id(self, backend):
        m = next(self.member_seq[backend])
        ref = self.reference["shard", backend]
        return ("shard", backend, m.key, ref[m.variable, m.t0:m.t1])

    def _shard_slice(self, backend):
        """Six frames that always straddle two shards."""
        shard = SHARD_SPEC["t"] // SHARD_SPEC["shards"]
        a = next(self.start_seq[backend])
        ref = self.reference["shard", backend]
        return ("shard", backend, slice(a, a + shard), ref[:, a:a + shard])

    def _names(self, backend, names):
        ref = self.reference["multivar", backend]
        select = names[0] if len(names) == 1 else list(names)
        return ("multivar", backend, select, {n: ref[n] for n in names})

    def _full(self, kind, backend) -> Op:
        path = self.paths[kind, backend]
        out, latency = self.clock(lambda: self.session.decompress(path))
        same = np.array_equal(out, self.reference[kind, backend])
        self.ctx.outcome.op([] if same else ["full decode changed"],
                            f"full decode {kind}-{backend}")
        return Op(latency=latency, out_bytes=f32_bytes(out),
                  decompress_s=latency, timed=False)

    def _new_write(self, c, kind, backend) -> Op:
        from repro.api import Archive, Bound
        path = os.path.join(self.workdir, f"new-{kind}-{c}.bin")
        archive, latency = self.clock(
            lambda: self._write(self.session, kind, backend, path))
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        problems = self.ctx.ledger.check(self._params(kind, backend), data)
        if c == 0:
            full = self.session.decompress(data)
            problems += self._check_full(kind, Archive.open(data), full,
                                         Bound.nrmse(READ_NRMSE), {})
        self.ctx.outcome.op(problems, f"new {kind}-{backend}")
        raw = (f32_bytes(self.multivar) if kind == "multivar"
               else f32_bytes(self.stream))
        return Op(latency=latency, raw_bytes=raw, compress_s=latency,
                  archive_bytes=len(data), timed=False)

    def cycle(self, c: int) -> List[Op]:
        # fourteen selects.  Four cheap ones on trans (two multivar
        # variables, two shards), five one-shard reads on arithmetic
        # that hold the median, five costly ones (a time slice over two
        # shards and a whole variable on trans, two time slices and a
        # multivar variable on arithmetic).  The median sits on reads
        # whose decode, not file and interpreter overhead, is most of
        # the time.  Two arithmetic time slices put the tail inside one
        # kind of read; on the boundary between two kinds it would move
        # with the number of cycles a run completes.
        trans = self.reference["shard", "trans"]
        selects = ([self._names("trans", "u"), self._names("trans", "v"),
                    self._shard_id("trans"), self._shard_id("trans")]
                   + [self._shard_id("arithmetic") for _ in range(5)]
                   + [self._shard_slice("trans"),
                      ("shard", "trans", 1, trans[1]),
                      self._shard_slice("arithmetic"),
                      self._shard_slice("arithmetic"),
                      self._names("arithmetic", "u")])
        ops = [self._select(*s) for s in selects]
        ops.append(self._full("stream", "trans"))
        ops.append(self._full("stream", "arithmetic"))
        ops.append(self._new_write(c, "multivar", "arithmetic"))
        ops.append(self._new_write(c, "stream", "trans"))
        return ops

    def layer_extras(self) -> Dict[str, float]:
        return {"container.bytes_read_ratio":
                self.select_read / self.select_size if self.select_size
                else 0.0}
