"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload rulebased-sweep --seed 1 \\
        --seconds 10 --trace 0

The program is imported from the checkout's ``src`` directory and
reached only through ``repro.api.Session`` and ``repro serve``.  With
``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` a separate traced run reports
the per-layer split instead.  Every decoded output is checked; a
failed check sets ``"correct": false`` and the exit code to 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

WORKLOADS = ("rulebased-sweep", "ours-keyframe", "archive-reads",
             "served-mix")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it;
    refuse to measure an installed copy from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"error: no program source under {src}")
    sys.path.insert(0, src)
    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported repro from {repro.__file__}")


class Context:
    """What every workload shares: seed, width, scratch space, checks."""

    def __init__(self, workload: str, seed: int):
        from common import DigestLedger, Outcome, nproc
        self.workload, self.seed = workload, seed
        self.nproc = nproc()
        self.root = ROOT
        self.base = os.path.join(ROOT, ".perfbench")
        os.makedirs(self.base, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="run-", dir=self.base)
        self.ledger = DigestLedger(os.path.join(self.base, "state"),
                                   workload, seed)
        self.outcome = Outcome()

    def subdir(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        os.makedirs(path, exist_ok=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def run_inproc(ctx: Context, cls, seconds: float, trace: bool):
    """Set up ``SETUP_REPS`` times (keep the last), then measure."""
    from common import (SETUP_GAUGE, SETUP_REPS, SpeedGauge, median,
                        peak_rss_mb, tail)
    from inproc import run_cycles, summarize
    setups, setup_gauge = [], SpeedGauge()
    for rep in range(SETUP_REPS):
        workload = cls(ctx)
        setup_gauge.sample(SETUP_GAUGE)
        t0 = time.perf_counter()
        workload.setup(ctx.subdir(f"setup{rep}"))
        setups.append(time.perf_counter() - t0)
        workload.check_setup()
        if rep < SETUP_REPS - 1:
            workload.close()
    try:
        workload.after_setup()
        gauge = workload.clock.gauge
        if not trace:
            gauge.samples.clear()
            cycles = run_cycles(workload.cycle, seconds)
            s, raw = summarize(cycles, gauge.scale()), summarize(cycles)
            tail_s, tail_pct, n = tail(s["latencies"])
            metrics = {"setup_s": median(setups) * setup_gauge.scale(),
                       "compress_mbps": s["compress_mbps"],
                       "decompress_mbps": s["decompress_mbps"],
                       "ratio": s["ratio"],
                       "latency_p50_s": s["latency_p50_s"],
                       "latency_tail_s": tail_s,
                       "peak_rss_mb": peak_rss_mb()}
            samples = {"setup_s": len(setups), "cycles": len(cycles),
                       "latency": n, "latency_tail_pct": tail_pct,
                       "raw_setup_s": median(setups),
                       "gauge": len(gauge.samples),
                       "gauge_p50_s": median(gauge.samples),
                       "raw_compress_mbps": raw["compress_mbps"],
                       "raw_decompress_mbps": raw["decompress_mbps"],
                       "raw_latency_p50_s": raw["latency_p50_s"]}
            return metrics, samples
        from tracer import Tracer, install, layer_metrics
        gauge.samples.clear()
        plain = run_cycles(workload.cycle, seconds / 2)
        wall0 = summarize(plain, gauge.scale())["wall"]
        gauge.samples.clear()
        tracer = install(Tracer())
        workload.clock.tracer = tracer
        try:
            traced = run_cycles(workload.cycle, 0, count=len(plain))
        finally:
            tracer.uninstall()
            workload.clock.tracer = None
        wall1 = summarize(traced, gauge.scale())["wall"]
        ops = sum(len(c) for c in traced)
        metrics = layer_metrics(tracer, ctx.nproc,
                                workload.layer_extras())
        metrics.update({"trace.overhead_frac": wall1 / wall0 - 1.0,
                        "trace.wall_s": wall1, "trace.ops": ops})
        return metrics, {"cycles": len(traced), "ops": ops}
    finally:
        workload.close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = _spec()
    _import_program()

    from common import run_meta
    ctx = Context(args.workload, args.seed)
    try:
        if args.workload == "served-mix":
            from served import run_served
            metrics, samples = run_served(ctx, args.seconds,
                                          bool(args.trace))
        else:
            import inproc
            cls = {"rulebased-sweep": inproc.RulebasedSweep,
                   "ours-keyframe": inproc.OursKeyframe,
                   "archive-reads": inproc.ArchiveReads}[args.workload]
            metrics, samples = run_inproc(ctx, cls, args.seconds,
                                          bool(args.trace))
        ctx.ledger.save()
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        ctx.close()

    outcome = ctx.outcome
    if args.trace:
        metrics["failed_frac"] = outcome.failed / max(outcome.attempted, 1)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        missing = sorted({m["name"] for m in wanted} ^ set(metrics))
        print(f"error: metric set differs from BENCHMARK.json: {missing}",
              file=sys.stderr)
        return 1
    for reason in outcome.reasons:
        print(f"check failed: {reason}", file=sys.stderr)
    print(json.dumps({"meta": run_meta(ROOT, args.workload, args.seed,
                                        args.seconds, bool(args.trace),
                                        samples)}))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]} for m in wanted}}))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
