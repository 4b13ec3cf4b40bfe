"""Shared pieces of the benchmark: run context, statistics, output
checks, the archive-digest ledger and run metadata."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 3
#: gauge samples right before each set-up
SETUP_GAUGE = 3

#: tolerance on a bound check, relative to the bound: float rounding
#: in the reconstruction, nothing more
BOUND_RTOL = 1e-6


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: what one :meth:`SpeedGauge.sample` takes at the reference speed;
#: a normalized time is a time as it would read at that speed
GAUGE_REF_S = 0.005


class SpeedGauge:
    """The machine's speed during a measurement, from a fixed reference
    kernel.

    A shared host's CPUs change speed by up to ~1.6x for seconds to
    minutes at a time, both cores together, so a run that falls in a
    slow phase reads slow all through.  The benchmark samples a fixed
    kernel before each timed operation, while the program is idle, and
    multiplies the run's times by ``GAUGE_REF_S`` over the median
    sample: the times as they would read at the reference speed.
    Set-up times are normalized the same way, from samples taken right
    before each set-up.  The kernel lives here, so no change to the
    program changes it.

    The kernel is the program's own mix: an interpreter loop, dict,
    JSON and sort work on small Python objects, chains of NumPy calls
    on small arrays, and a NumPy sort and prefix sum.  Over phases 1.6x
    apart on a 2-core VM, the log of a served-size szlike compress
    moved 1.3x as far as the log of this kernel, an ``ours`` request
    1.0x as far.
    """

    def __init__(self, cpus=None):
        #: CPUs the kernel runs on (None: wherever the caller runs)
        self.cpus = cpus
        rng = np.random.default_rng(0)
        self._data = rng.standard_normal(100_000).astype(np.float32)
        self._words = [f"k{i}" for i in range(1500)]
        self.samples: List[float] = []

    def _kernel(self) -> None:
        total = 0
        for i in range(15_000):
            total += i * i % 7
        table = {w: i for i, w in enumerate(self._words)}
        json.loads(json.dumps(table))
        sorted(self._words, key=lambda w: w[::-1])
        small = self._data[:5000]
        for _ in range(250):
            small = small * 1.0001 + 1
        np.cumsum(np.sort(self._data))

    def sample(self, count: int = 1) -> None:
        if self.cpus is not None:
            home = os.sched_getaffinity(0)
            os.sched_setaffinity(0, self.cpus)
        try:
            for _ in range(count):
                t0 = time.perf_counter()
                self._kernel()
                self.samples.append(time.perf_counter() - t0)
        finally:
            if self.cpus is not None:
                os.sched_setaffinity(0, home)

    def scale(self) -> float:
        """Factor that turns times measured since the samples began
        into normalized ones."""
        return GAUGE_REF_S / median(self.samples)


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> "tuple[float, float, int]":
    """``(value, percentile, samples)`` of the highest percentile with
    at least ten samples beyond it; with ten or fewer samples there is
    none, and the maximum is reported as the 100th percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, n


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def bound_violations(original: np.ndarray, recon: np.ndarray,
                     bound, native_kind: Optional[str] = None,
                     native_value: Optional[float] = None) -> List[str]:
    """Why ``recon`` breaks ``bound`` on ``original`` (empty if it
    does not).

    ``bound`` is the caller's :class:`repro.api.Bound`; pointwise is
    checked as max-abs error, nrmse as RMSE over the range.  The
    codec's native target (``pointwise`` max-abs or ``rmse``), when
    given, is checked too.
    """
    original = np.asarray(original, dtype=np.float64)
    recon = np.asarray(recon, dtype=np.float64)
    if original.shape != recon.shape:
        return [f"shape {recon.shape} != {original.shape}"]
    err = recon - original
    if not np.all(np.isfinite(recon)):
        return ["non-finite reconstruction"]
    max_abs = float(np.max(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err ** 2)))
    value_range = float(original.max() - original.min())
    out = []

    def check(name, achieved, target):
        if achieved > target * (1 + BOUND_RTOL):
            out.append(f"{name} {achieved:.6g} > {target:.6g}")

    if bound.kind == "pointwise":
        check("max-abs", max_abs, bound.value)
    elif bound.kind == "nrmse":
        check("nrmse", rmse / value_range if value_range else rmse,
              bound.value)
    if native_kind == "pointwise":
        check("native max-abs", max_abs, native_value)
    elif native_kind == "rmse":
        check("native rmse", rmse, native_value)
    return out


@dataclass
class Outcome:
    """Counts of attempted and failed operations, with reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def op(self, problems: List[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {'; '.join(problems)}")


class DigestLedger:
    """SHA-256 of every archive, compared with the first run of the
    same workload and seed (and with earlier repeats in this run).

    An archive is keyed by every parameter that determines its bytes,
    so a changed benchmark setting makes a new key, never a false
    mismatch.  The first digest seen for a key is kept in a small JSON
    file under the checkout's ``.perfbench/state``; later runs must
    match it.
    """

    def __init__(self, state_dir: str, workload: str, seed: int):
        os.makedirs(state_dir, exist_ok=True)
        self.path = os.path.join(state_dir, f"{workload}-seed{seed}.json")
        try:
            with open(self.path) as fh:
                self.known: Dict[str, str] = json.load(fh)
        except FileNotFoundError:
            self.known = {}
        self.added = False

    def check(self, params, data: bytes) -> List[str]:
        key = json.dumps(params, sort_keys=True, default=str)
        digest = hashlib.sha256(data).hexdigest()
        first = self.known.get(key)
        if first is None:
            self.known[key] = digest
            self.added = True
            return []
        if first == digest:
            return []
        return [f"archive {key} sha256 {digest[:12]} != first run "
                f"{first[:12]}"]

    def save(self) -> None:
        if not self.added:
            return
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.known, fh, sort_keys=True)
        os.replace(tmp, self.path)


# ----------------------------------------------------------------------
# Run metadata
# ----------------------------------------------------------------------
def _git_sha(root: str) -> Optional[str]:
    """HEAD commit read from ``.git`` (no subprocess); None outside a
    git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _src_digest(root: str) -> str:
    """SHA-256 over the program's source tree (names and contents), so
    a run outside git still identifies the code it measured."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _machine_id() -> str:
    try:
        with open("/etc/machine-id") as fh:
            return fh.read().strip()
    except OSError:
        text = f"{platform.node()}|{platform.machine()}|{os.cpu_count()}"
        return hashlib.sha256(text.encode()).hexdigest()[:32]


def run_meta(root: str, workload: str, seed: int, seconds: float,
             trace: bool, samples: Dict[str, int]) -> dict:
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "git_sha": _git_sha(root),
            "src_sha256": _src_digest(root),
            "python": sys.version.split()[0],
            "numpy": np.__version__, "nproc": nproc(),
            "machine_id": _machine_id(), "samples": samples}
