"""Shared pieces of the deployment benchmark.

Every workload returns an :class:`Outcome`: its end-to-end metrics
(measured with tracing off), its per-layer metrics (filled only by a
traced run), the figures under the names the benchmark's design uses
(``tiles_per_s``, ``serve_p99_ms`` ...), the operations it attempted and
those that failed, and the reasons any correctness check failed.

The helpers here time repeated set-ups from a cold engine, read the
engine's process-wide counters, sample resident memory, and record the
machine the numbers came from.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# The Table 1 default detector's deployment geometry.
WINDOW = 100
STRIDE = 50
BANDS = 4
# Untrained seed-0 weights put every confidence between about 0.38 and
# 0.53, so the scan default of 0.7 would detect nothing and leave the
# output checks comparing empty lists; 0.5 keeps about a tenth of the
# windows as detections, which gives NMS and the merge real work.
CONFIDENCE = 0.5

ENGINE_COUNTERS = ("autotune_decisions", "sched_solves", "sched_solve_ms")


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    workload: str
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    named: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    labels: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    def check(self, ok: bool, problem: str) -> bool:
        """Record ``problem`` unless ``ok``; returns ``ok``."""
        if not ok:
            self.problems.append(problem)
        return ok


class Scratch:
    """Unique file paths under one per-run directory."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.root.mkdir(parents=True, exist_ok=True)
        self._count = 0

    def path(self, stem: str) -> Path:
        self._count += 1
        return self.root / f"{stem}-{self._count}.jsonl"


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def engine_counters() -> dict[str, float]:
    """Process-wide engine build counters: autotune decisions held, IOS
    DP solves run and their cumulative milliseconds."""
    from repro.engine import autotune_choices, sched

    stats = sched.stats()
    return {"autotune_decisions": len(autotune_choices()),
            "sched_solves": stats["solves"],
            "sched_solve_ms": stats["solve_ms"]}


def counter_delta(before: dict, after: dict) -> dict[str, float]:
    return {name: after[name] - before[name] for name in ENGINE_COUNTERS}


def timed_setups(build, teardown, reps: int) -> tuple[float, object, list]:
    """Run ``build`` ``reps`` times from cold engine caches.

    Every autotune decision and solved IOS schedule is forgotten before
    each build, so each pays what a fresh deployment process pays.
    Returns (median seconds, the last build's result, every time).  The
    previous result is torn down before each new build, so only one set
    of services and models is alive at a time.
    """
    from repro.engine import clear_autotune_cache, sched

    times: list[float] = []
    built = None
    for _ in range(reps):
        if built is not None and teardown is not None:
            teardown(built)
        clear_autotune_cache()
        sched.clear_cache()
        start = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - start)
    return median(times), built, times


def _rss_kb() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class RssPeak:
    """Highest resident memory of this process seen while the block
    runs, sampled every 20 ms by a background thread.

    The kernel's own high-water mark would also count input generation
    and set-up transients; the timed window is what a deployment holds
    while it works.
    """

    def __init__(self) -> None:
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample,
                                        name="perfbench-rss", daemon=True)

    def _sample(self) -> None:
        while True:
            self.peak_kb = max(self.peak_kb, _rss_kb())
            if self._stop.wait(0.02):
                return

    def __enter__(self) -> "RssPeak":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_kb = max(self.peak_kb, _rss_kb())

    @property
    def mb(self) -> float:
        return self.peak_kb / 1024.0


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library."""
    try:
        with open("/proc/self/maps", encoding="ascii") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git; a
    checkout exported without its repository reports "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    """The machine and software the numbers came from, so results from
    different machines are never compared silently."""
    from repro.scanpar import default_start_method

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "cpus_visible": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "start_method": default_start_method(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
    }


def engine_labels(compiled, batches) -> dict:
    """Per-batch kernel variant of each conv step and the IOS
    schedule's parallelism, so a silent flip shows in the output."""
    labels = {}
    for batch in batches:
        schedule = compiled.schedule_for(batch)
        labels[f"b{batch}"] = {
            "kernel_choices": compiled.kernel_choices(batch),
            "max_parallelism": (schedule.max_parallelism
                                if schedule is not None else None),
        }
    return labels


def engine_probe_layers(compiled, batches) -> dict[str, float]:
    """Kernel-category shares of a one-chip inference and the planned
    arena bytes at the largest of ``batches``, probed on the built
    program after the timed window."""
    x = np.zeros((1, BANDS, WINDOW, WINDOW), dtype=np.float32)
    categories = compiled.profile(x)["categories"]
    layers = {f"engine.share.{name}":
              categories.get(name, {}).get("share", 0.0)
              for name in ("conv", "matmul", "pooling", "memops")}
    layers["engine.planned_peak_bytes.max_batch"] = float(
        compiled.planned_peak_bytes(max(batches)))
    return layers

