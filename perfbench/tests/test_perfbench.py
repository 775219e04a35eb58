"""Self-tests of the deployment benchmark, at toy sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import chip_serve
import journaled_scan
import nas_sweep
from harness import ROOT, Scratch, median
from inputs import corrupted_scenes, nas_blocks, serve_phases
from tracing import SpanRecorder, instrument

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m for m in SPEC["per_layer"]}


def small_arch():
    from repro.arch import ConvSpec, PoolSpec, SPPNetConfig

    return SPPNetConfig(convs=(ConvSpec(8, 3, 1),), pools=(PoolSpec(2, 2),),
                        spp_levels=(2, 1), fc_sizes=(32,), name="toy")


TOY = {
    "chip_serve": (chip_serve, lambda: {"config": chip_serve.Config(
        scene_size=256, min_requests_80=40, arch=small_arch())}),
    "journaled_scan": (journaled_scan, lambda: {
        "config": journaled_scan.Config(scenes=1, scene_size=256,
                                        setup_reps=1)}),
    "nas_latency_sweep": (nas_sweep, lambda: {"blocks": 1}),
}


def run_toy(name, tmp_path, seed=1, traced=True, seconds=0.5):
    module, toy = TOY[name]
    recorder = SpanRecorder() if traced else None
    return module.run(seed, seconds, recorder=recorder,
                      scratch=Scratch(tmp_path / f"{name}-{seed}"), **toy())


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(TOY)


@pytest.mark.parametrize("name", sorted(TOY))
def test_workload_runs_at_toy_size(name, tmp_path):
    start = time.perf_counter()
    out = run_toy(name, tmp_path)
    assert time.perf_counter() - start < 60
    assert out.correct, out.problems
    assert out.attempted >= 1 and out.failed == 0
    assert set(out.e2e) == set(E2E)
    assert all(value > 0 for value in out.e2e.values()), out.e2e
    assert set(out.layers) <= set(LAYERS)
    assert out.layers["engine.timed_window_solves"] == 0


def test_traced_stage_times_add_up_to_scan_wall_time(tmp_path):
    out = run_toy("journaled_scan", tmp_path)
    assert out.correct, out.problems
    assert 0 <= out.layers["trace.reconcile_error"] <= \
        journaled_scan.RECONCILE_TOLERANCE
    assert out.layers["robust.sanitize_ms_per_tile"] > 0
    assert out.layers["engine.predict_ms_per_chip.b1"] > 0


def test_second_seed_reports_same_metric_names(tmp_path):
    first = run_toy("journaled_scan", tmp_path, seed=1, traced=False)
    second = run_toy("journaled_scan", tmp_path, seed=2, traced=False)
    assert set(first.e2e) == set(second.e2e) == set(E2E)


def test_inputs_come_from_the_seed():
    plan = [(40, 10), (80, 20)]
    a, b = serve_phases(3, plan, 256), serve_phases(3, plan, 256)
    c = serve_phases(4, plan, 256)
    assert all(x.origins == y.origins and (x.due_s == y.due_s).all()
               for x, y in zip(a, b))
    assert a[1].origins != c[1].origins
    assert nas_blocks(3) == nas_blocks(3) != nas_blocks(4)

    def pairs(block):
        return sorted((s["fc_width"], s["spp_first_level"]) for s in block)
    assert [pairs(b) for b in nas_blocks(3)] == [pairs(b) for b in nas_blocks(4)]
    assert len({p for b in nas_blocks(3) for p in pairs(b)}) == 35


def _slowed(original, share):
    """``original`` made ``share`` slower by spinning after each call."""
    def predict(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        until = time.perf_counter() + share * (time.perf_counter() - start)
        while time.perf_counter() < until:
            pass
        return result
    return predict


def flagged(base, new, better, alpha=0.001):
    """Whether paired samples ``new`` read worse than ``base``: worse in
    more pairs than chance allows (one-sided sign test at ``alpha``),
    with a worse median."""
    sign = 1.0 if better == "lower" else -1.0
    diffs = [sign * (n - b) for b, n in zip(base, new) if n != b]
    losses = sum(d > 0 for d in diffs)
    p = sum(math.comb(len(diffs), k)
            for k in range(losses, len(diffs) + 1)) / 2 ** len(diffs)
    return p < alpha and sign * (median(new) - median(base)) > 0


def test_slower_predict_is_flagged_where_it_runs(tmp_path):
    """A 10% slower CompiledModel.predict is flagged on scan throughput
    and on the engine's per-chip time, and not on sanitize time.

    Host noise between runs (about 12% here) exceeds the ~7% throughput
    effect, so the sides alternate scan by scan on one model, in ABBA
    order, and are compared pair by pair."""
    from repro.arch import SPPNetConfig
    from repro.detect import SPPNetDetector
    from repro.engine import CompiledModel, compiled_for

    scene = corrupted_scenes(1, 1, 256, 0.1)[0]
    model = SPPNetDetector(SPPNetConfig(), seed=0)
    model.eval()
    compiled_for(model).warmup([1])
    original = CompiledModel.__dict__["predict"]
    scratch = Scratch(tmp_path)
    recorder = SpanRecorder()
    metrics = {"throughput_per_s": ([], []),
               "engine.predict_ms_per_chip.b1": ([], []),
               "robust.sanitize_ms_per_tile": ([], [])}

    def scan(slow: bool) -> None:
        CompiledModel.predict = _slowed(original, 0.10) if slow else original
        mark = recorder.mark()
        with instrument(recorder):
            start = time.perf_counter()
            result = journaled_scan._scan(model, scene, scratch.path("s"),
                                          n_workers=1)
            wall = time.perf_counter() - start
        tiles = result.coverage.tiles_total
        sanitize = sum(s.ms for s in recorder.named("robust.sanitize", mark))
        for name, value in (("throughput_per_s", tiles / wall),
                            ("engine.predict_ms_per_chip.b1",
                             recorder.ms_per_chip(mark, 1)),
                            ("robust.sanitize_ms_per_tile", sanitize / tiles)):
            metrics[name][slow].append(value)

    try:
        scan(False)                      # warm caches
        for name in metrics:
            metrics[name][0].clear()
        for pair in range(60):
            for slow in ((False, True) if pair % 2 else (True, False)):
                scan(slow)
    finally:
        CompiledModel.predict = original

    def worse(name):
        better = (E2E.get(name) or LAYERS[name])["better"]
        return flagged(*metrics[name], better)

    assert worse("throughput_per_s")
    assert worse("engine.predict_ms_per_chip.b1")
    assert not worse("robust.sanitize_ms_per_tile")


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark's files, the command
    exits non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chip_serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (Path(tmp_path) / ".perfbench_out").exists()


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs Linux /proc and PR_SET_CHILD_SUBREAPER")
def test_supervisor_waits_for_orphaned_descendants():
    """A process the measuring child leaves behind is adopted and waited
    for before the command returns, as multiprocessing's resource
    tracker is after a pool has been used."""
    script = (
        "import subprocess, sys, time\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "import run\n"
        "run._become_subreaper()\n"
        "subprocess.run(['sh', '-c', 'sleep 1 &'], check=True)\n"
        "start = time.monotonic()\n"
        "left = run._children()\n"
        "assert run._reap_all() == []\n"
        "assert run._children() == []\n"
        "print(len(left), round(time.monotonic() - start, 1))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    adopted, waited = proc.stdout.split()
    assert int(adopted) == 1
    assert float(waited) >= 0.5
