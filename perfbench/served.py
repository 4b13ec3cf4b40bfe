"""The ``served-mix`` workload: an open loop against ``repro serve``.

Jobs arrive on a fixed schedule: evenly spaced at :data:`RATE` per
second with a little seeded jitter, in blocks of eight that hold four
cold compresses (fresh dataset parameters), three ``select=``
decompresses of archives the server already holds, and one repeat of
an earlier compress that the result cache answers.  The seed draws the
data, the time ranges and the jitter; the order of job kinds is the
same in every run, so runs differ in inputs, not in load pattern.  Each job
runs in its own client thread, so a slow server delays no later
arrival.  Latency runs from the job's due time to the last result
byte, without the client's polling delay: due time to the server's
``finished`` timestamp, plus the time the result download takes.
Client and server share one clock.  Outputs are checked after the
schedule ends, so the checks take no CPU from the server while it is
measured.  On two or more CPUs the server runs on a CPU of its own and
the client on the others; the speed gauge samples the server's CPU
between jobs, when none is in flight.
"""

from __future__ import annotations

import io
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from common import (SETUP_GAUGE, SETUP_REPS, SpeedGauge, bound_violations,
                    median, peak_rss_mb, tail)

#: arrivals per second: about a third of the cold capacity of a 2-core
#: box (one cold job takes 0.06-0.1 s of server time), which with the
#: cheaper hits keeps the server about a quarter busy.  Nearer half the
#: capacity, a slow phase of the machine pushes one job's polls and
#: download into the next job's run, and latency then moves far more
#: than the speed gauge does
RATE = 3.5
BLOCK = ("cold", "decompress", "cold", "decompress",
         "cold", "hit", "cold", "decompress")
#: arrival jitter, as a share of the spacing
JITTER = 0.05
SHAPE = {"t": 12, "h": 32, "w": 32}
SHARDS = 2
#: archives the decompresses read: four shards, and every select spans
#: all four, so a decompress costs about what a cold compress does and
#: the two kinds share one latency distribution
WARM_SHAPE = {"t": 24, "h": 32, "w": 32}
WARM_SHARDS = 4
CODEC = "szlike"
NRMSE = 1e-2
#: pinned so the service paths, not the pure-Python arithmetic coder,
#: dominate a job
BACKEND = "trans"
#: compresses finished before the clock starts; targets of hits and
#: decompresses
WARM = 4
#: frames a decompress selects
SELECT_FRAMES = (19, 20)
#: status polls: the first one after a job's usual run time, then
#: every ``POLL_S``.  Polls cost the server CPU while a job runs, and
#: the polling delay is not part of the measured latency
FIRST_POLL_S = 0.15
POLL_S = 0.05
HTTP_TIMEOUT_S = 60.0
#: the gauge samples only when the next job is at least this far off
GAUGE_GAP_S = 0.02
BOOT_TIMEOUT_S = 60.0


@dataclass
class Job:
    kind: str
    due: float                    # seconds after the clock starts
    body: dict
    key: str
    late: float = 0.0
    latency: Optional[float] = None
    #: latency minus the server's own record (created -> finished):
    #: submission and result download
    overhead: Optional[float] = None
    record: Optional[dict] = None
    data: Optional[bytes] = None
    error: Optional[str] = None
    traced_half: bool = False
    extra: Dict = field(default_factory=dict)


def _request(dataset_seed: int, shape=SHAPE, shards=SHARDS) -> dict:
    return {"type": "compress", "dataset": "e3sm", "shape": shape,
            "codec": CODEC, "bound": f"nrmse:{NRMSE}", "shards": shards,
            "variables": [0], "seed": 0, "entropy_backend": BACKEND,
            "dataset_params": {"seed": dataset_seed}}


class Server:
    """One ``repro serve`` subprocess with its own cache and log."""

    def __init__(self, ctx, workdir: str, cpus=None):
        src = os.path.join(ctx.root, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        cmd = [sys.executable, "-m", "repro", "serve",
               "--host", "127.0.0.1", "--port", "0",
               # one job at a time on one core: two jobs sharing the
               # interpreter lock finish later than one after the other
               "--workers", "1", "--executor", "serial",
               "--cache-dir", os.path.join(workdir, "cache"),
               "--rate-limit", "0", "--seed", "0"]
        self.log_path = os.path.join(workdir, "server.log")
        t0 = time.perf_counter()
        # the server logs every request; a file never fills up and
        # stalls it the way an undrained pipe does
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, stdin=subprocess.DEVNULL, stdout=log,
                stderr=subprocess.STDOUT, env=env, cwd=workdir,
                preexec_fn=(None if cpus is None else
                            lambda: os.sched_setaffinity(0, cpus)))
        try:
            self.base = self._wait_healthy(t0 + BOOT_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - t0

    def _wait_healthy(self, deadline: float) -> str:
        pattern = re.compile(rb"listening on http://([\d.]+):(\d+)")
        base = None
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with "
                                   f"{self.proc.returncode}; see "
                                   f"{self.log_path}")
            if base is None:
                with open(self.log_path, "rb") as fh:
                    found = pattern.search(fh.read())
                if found:
                    base = (f"http://{found.group(1).decode()}:"
                            f"{found.group(2).decode()}")
            if base is not None:
                try:
                    with urllib.request.urlopen(base + "/health",
                                                timeout=5) as resp:
                        if resp.status == 200:
                            return base
                except (urllib.error.URLError, OSError):
                    pass
            time.sleep(0.005)
        raise RuntimeError("server did not become healthy in time")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill only if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    # -- HTTP -------------------------------------------------------------
    def post(self, body: dict) -> dict:
        req = urllib.request.Request(
            self.base + "/v1/jobs", data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(req, timeout=HTTP_TIMEOUT_S) as resp:
            return json.load(resp)

    def get(self, path: str) -> bytes:
        with urllib.request.urlopen(self.base + path,
                                    timeout=HTTP_TIMEOUT_S) as resp:
            return resp.read()

    def run(self, body: dict) -> "tuple[dict, bytes, float]":
        """Submit, poll to a terminal state, fetch the result; returns
        the final job record, the result and the download time."""
        record = self.post(body)
        first = True
        while record["state"] not in ("done", "failed", "cancelled"):
            time.sleep(FIRST_POLL_S if first else POLL_S)
            first = False
            record = json.loads(self.get(f"/v1/jobs/{record['id']}"))
        if record["state"] != "done":
            raise RuntimeError(f"job {record['id']} {record['state']}: "
                               f"{record.get('error')}")
        t0 = time.perf_counter()
        data = self.get(f"/v1/jobs/{record['id']}/result")
        return record, data, time.perf_counter() - t0


def _schedule(seed: int, seconds: float, warm: List[Job]) -> List[Job]:
    rng = random.Random(seed)
    n = max(1, int(round(RATE * seconds / len(BLOCK)))) * len(BLOCK)
    # every (archive, time range) pair once, so no decompress is
    # answered from the cache (the pairs repeat only after 44 of them);
    # each range touches every shard and holds 19 or 20 frames, so the
    # seed's draw of ranges barely moves the bytes per job
    t, shard = WARM_SHAPE["t"], WARM_SHAPE["t"] // WARM_SHARDS
    ranges = [(k, a, a + n) for k in range(len(warm))
              for n in SELECT_FRAMES for a in range(shard)
              if t - shard < a + n <= t]
    rng.shuffle(ranges)
    jobs, cold, selects = [], 0, 0
    for i in range(n):
        kind = BLOCK[i % len(BLOCK)]
        due = (i + 0.5 + rng.uniform(-JITTER, JITTER)) / RATE
        if kind == "cold":
            ds_seed = 100000 + 1000 * seed + cold
            jobs.append(Job(kind, due, _request(ds_seed),
                            key=f"cold{cold}",
                            extra={"dataset_seed": ds_seed}))
            cold += 1
        elif kind == "hit":
            k = (i // len(BLOCK)) % len(warm)
            jobs.append(Job(kind, due, dict(warm[k].body), key=f"hit{k}",
                            extra={"warm": k}))
        else:
            k, a, b = ranges[selects % len(ranges)]
            selects += 1
            body = {"type": "decompress", "job": warm[k].record["id"],
                    "select": f"{a}:{b}"}
            jobs.append(Job(kind, due, body, key=f"select{k}:{a}:{b}",
                            extra={"warm": k, "range": (a, b)}))
    return jobs


def _drive(server: Server, jobs: List[Job], trace: bool,
           gauge: SpeedGauge) -> None:
    """Release each job at its due time on its own thread.  Between
    jobs, when none is in flight and the next is not due for a while,
    sample the speed gauge: the server is idle then."""
    start, start_wall = time.perf_counter(), time.time()
    half = len(jobs) // 2
    settled = threading.Condition()
    in_flight = [0]

    def client(job: Job) -> None:
        due = start + job.due
        job.late = time.perf_counter() - due
        try:
            job.record, job.data, fetch_s = server.run(job.body)
            job.latency = (job.record["finished"] - (start_wall + job.due)
                           + fetch_s)
            job.overhead = (job.record["created"] - (start_wall + job.due)
                            + fetch_s)
        except urllib.error.HTTPError as exc:
            job.error = f"HTTP {exc.code}"
        except Exception as exc:  # every failure counts, none stops the loop
            job.error = f"{type(exc).__name__}: {exc}"
        finally:
            with settled:
                in_flight[0] -= 1
                settled.notify_all()

    threads = []
    next_scrape = 0.0
    for i, job in enumerate(jobs):
        job.traced_half = trace and i >= half
        sampled = False
        while True:
            now = time.perf_counter() - start
            if now >= job.due:
                break
            if (not sampled and not in_flight[0]
                    and job.due - now > GAUGE_GAP_S):
                gauge.sample()
                sampled = True
                continue
            # the traced half also scrapes /metrics twice a second
            if job.traced_half and now >= next_scrape:
                server.get("/metrics")
                next_scrape = now + 0.5
                continue
            wait = min(job.due - now, 0.05)
            if not sampled and in_flight[0]:
                # until the jobs in flight settle, or the next is due
                with settled:
                    settled.wait_for(lambda: not in_flight[0], wait)
            else:
                time.sleep(wait)
        with settled:
            in_flight[0] += 1
        thread = threading.Thread(target=client, args=(job,))
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join(timeout=HTTP_TIMEOUT_S * 3)
        if thread.is_alive():
            raise RuntimeError("a client thread did not finish")
    if not gauge.samples:   # the server was never idle
        gauge.sample()


def _verify(ctx, warm: List[Job], jobs: List[Job]) -> None:
    """Check every result against regenerated originals and digests."""
    from repro.api import Archive, Bound, Session
    from repro.data import get_dataset_spec
    bound = Bound.nrmse(NRMSE)
    full: Dict[int, np.ndarray] = {}
    with Session(executor="thread", workers=ctx.nproc) as session:
        def check_archive(job: Job):
            frames = get_dataset_spec(
                "e3sm", seed=job.extra["dataset_seed"],
                **job.body["shape"]).build().frames(0)
            recon = session.decompress(job.data)
            problems = ctx.ledger.check(job.body, job.data)
            for m in Archive.open(job.data).index():
                problems += bound_violations(frames[m.t0:m.t1],
                                             recon[m.t0:m.t1], bound)
            return problems, recon

        for k, job in enumerate(warm):
            problems, full[k] = check_archive(job)
            ctx.outcome.op(problems, f"warm compress {k}")
        for job in jobs:
            if job.error is not None:
                ctx.outcome.op([job.error], f"{job.kind} {job.key}")
                continue
            if job.kind == "cold":
                problems, _ = check_archive(job)
            elif job.kind == "hit":
                problems = ([] if job.record.get("cache_hit")
                            else ["repeat was not a cache hit"])
                if job.data != warm[job.extra["warm"]].data:
                    problems.append("cached bytes differ")
            else:
                a, b = job.extra["range"]
                out = np.load(io.BytesIO(job.data))
                problems = ([] if np.array_equal(
                    out, full[job.extra["warm"]][a:b])
                    else ["select differs from the full decode"])
            ctx.outcome.op(problems, f"{job.kind} {job.key}")


def _rejected(metrics_text: str) -> float:
    total = 0.0
    for line in metrics_text.splitlines():
        if line.startswith("repro_jobs_rejected_total"):
            total += float(line.rsplit(None, 1)[1])
    return total


def _split_cpus():
    """``(server CPUs, client CPUs)``: the server gets one CPU of its
    own and the client the rest, so the gauge can measure the server's
    CPU; ``(None, None)`` on a single CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[-1]}, set(cpus[:-1])


def run_served(ctx, seconds: float, trace: bool):
    server_cpus, client_cpus = _split_cpus()
    if client_cpus is not None:
        # threads started from here on inherit the client's CPUs
        os.sched_setaffinity(0, client_cpus)
    boots, server, boot_gauge = [], None, SpeedGauge(server_cpus)
    try:
        for rep in range(SETUP_REPS):
            if server is not None:
                server.stop()
            boot_gauge.sample(SETUP_GAUGE)
            server = Server(ctx, ctx.subdir(f"serve{rep}"), server_cpus)
            boots.append(server.boot_s)
        warm = []
        for k in range(WARM):
            ds_seed = 90000 + 10 * ctx.seed + k
            job = Job("warm", 0.0,
                      _request(ds_seed, WARM_SHAPE, WARM_SHARDS),
                      key=f"warm{k}", extra={"dataset_seed": ds_seed})
            job.record, job.data, _ = server.run(job.body)
            warm.append(job)
        jobs = _schedule(ctx.seed, seconds, warm)
        gauge = SpeedGauge(server_cpus)
        _drive(server, jobs, trace, gauge)
        metrics_text = server.get("/metrics").decode()
        rss = peak_rss_mb(str(server.proc.pid))
    finally:
        if server is not None:
            server.stop()
    _verify(ctx, warm, jobs)
    # latencies as they would read at the gauge's reference speed
    scale = gauge.scale()
    for job in jobs:
        if job.latency is not None:
            job.latency *= scale

    ok = [j for j in jobs if j.error is None]
    cold = [j for j in ok if j.kind == "cold"]
    sel = [j for j in ok if j.kind == "decompress"]
    hits = [j for j in ok if j.kind == "hit"]
    raw = SHAPE["t"] * SHAPE["h"] * SHAPE["w"] * 4
    if not trace:
        lat = [j.latency for j in cold + sel]
        tail_s, tail_pct, n = tail(lat)
        metrics = {
            "setup_s": median(boots) * boot_gauge.scale(),
            "compress_mbps": median([raw / j.latency / 1e6 for j in cold]),
            "decompress_mbps": median([
                (int(np.prod(np.load(io.BytesIO(j.data)).shape)) * 4)
                / j.latency / 1e6 for j in sel]),
            "ratio": raw * len(cold) / sum(len(j.data) for j in cold),
            "latency_p50_s": median(lat), "latency_tail_s": tail_s,
            "peak_rss_mb": rss}
        samples = {"setup_s": len(boots), "jobs": len(jobs),
                   "cold": len(cold), "decompress": len(sel),
                   "hits": len(hits), "latency": n,
                   "latency_tail_pct": tail_pct,
                   "raw_setup_s": median(boots),
                   "gauge": len(gauge.samples),
                   "gauge_p50_s": median(gauge.samples),
                   "raw_latency_p50_s": median(lat) / scale}
        return metrics, samples

    from tracer import Tracer, layer_metrics
    metrics = layer_metrics(Tracer(), 1, {})
    computed = cold + sel

    plain = [j.latency for j in computed if not j.traced_half]
    traced = [j.latency for j in computed if j.traced_half]
    overheads = [j.overhead for j in computed]
    errors = sum(1 for j in jobs if j.error and j.error.startswith(
        ("HTTP 429", "HTTP 503")))
    metrics.update({
        "service.queue_wait_s": median(
            [j.record["started"] - j.record["created"] for j in computed]),
        "service.run_s": median(
            [j.record["finished"] - j.record["started"] for j in computed]),
        "service.overhead_s": median(overheads),
        "service.cache_hit_frac": sum(
            1 for j in ok if j.record.get("cache_hit")) / len(jobs),
        "service.rejected": errors + _rejected(metrics_text),
        "service.hit_p50_s": median([j.latency for j in hits]),
        "generator.late_s": max(j.late for j in jobs),
        "unattributed_s": sum(overheads),
        "trace.overhead_frac": median(traced) / median(plain) - 1.0,
        "trace.wall_s": sum(traced),
        "trace.ops": len(traced)})
    return metrics, {"jobs": len(jobs), "hits": len(hits)}
