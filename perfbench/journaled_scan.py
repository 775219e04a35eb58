"""journaled_scan: closed loop of robust scans over damaged scenes.

One caller scans four 512-px scenes back to back, each with 10% of its
tiles damaged by ``repro.faults.corrupt_scene``, through
``scan_scene(sanitize=SanitizePolicy.for_scene(), journal=<fresh file>)``
on the engine backend.  This path runs the engine at batch 1 behind the
per-tile ``GuardedEngine`` guard, with a fsynced journal write per tile
beside the sanitize repairs.  It skips ``serve``.

The timed scans run sequentially (``n_workers=1``).  With
``n_workers="auto"`` the scan shards over two pool workers, and on a
2-core host each worker's OpenBLAS threads compete with the other
worker for the cores: the same scan then took anywhere from 2 to 11 s
against about 1 s sequentially, too erratic for a timed figure.  The
traced run still scans every scene with ``"auto"`` on the warm pool,
checks the result against the sequential scan, and reports the ratio as
``scanpar.parallel_speedup``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from harness import (
    BANDS,
    CONFIDENCE,
    STRIDE,
    WINDOW,
    Outcome,
    RssPeak,
    counter_delta,
    engine_counters,
    engine_labels,
    engine_probe_layers,
    median,
    timed_setups,
)
from inputs import corrupted_scenes
from tracing import instrument, maybe_span

NAME = "journaled_scan"
BATCH_SIZE = 20
CORRUPT_FRACTION = 0.1
# In a traced scan the stage times (sanitize, the guard with the engine
# predict inside it, journal append, NMS) must cover the scan's wall time
# to within this share; what is left is the scan loop's own glue (tile
# slicing, record building).  Measured: about 1.5%.
RECONCILE_TOLERANCE = 0.05
STAGES = ("robust.sanitize", "robust.guard", "robust.journal_append",
          "detect.nms")


@dataclass(frozen=True)
class Config:
    scenes: int = 4
    scene_size: int = 512
    setup_reps: int = 3


def _scan(model, scene, journal, n_workers):
    from repro.detect import scan_scene
    from repro.robust import SanitizePolicy

    return scan_scene(model, scene, window=WINDOW, stride=STRIDE,
                      confidence_threshold=CONFIDENCE, batch_size=BATCH_SIZE,
                      backend="engine", sanitize=SanitizePolicy.for_scene(),
                      journal=str(journal), n_workers=n_workers)


def _journal_ok(path, result, ref_path) -> bool:
    """The reloaded journal holds the same records as the reference
    scan's journal and rebuilds this scan's detections and coverage
    counts."""
    from repro.detect.scan import SceneDetection, non_max_suppression
    from repro.robust import ScanJournal

    _, records = ScanJournal(path).load()
    _, ref_records = ScanJournal(ref_path).load()
    records = sorted(records, key=lambda r: r.index)
    if records != sorted(ref_records, key=lambda r: r.index):
        return False
    rebuilt = non_max_suppression([
        SceneDetection(row=row, col=col, height=h, width=w, confidence=conf)
        for rec in records for (row, col, h, w, conf) in rec.detections])
    cov = result.coverage
    return (rebuilt == list(result)
            and len(records) == cov.tiles_total
            and sum(r.status == "repaired" for r in records)
            == cov.tiles_repaired
            and sum(r.status == "quarantined" for r in records)
            == cov.tiles_quarantined)


def run(seed: int, seconds: float, recorder=None, scratch=None,
        config: Config = Config()) -> Outcome:
    from repro.arch import SPPNetConfig
    from repro.detect import SPPNetDetector
    from repro.detect.scan import scan_origins
    from repro.engine import compiled_for

    out = Outcome(NAME)
    scenes = corrupted_scenes(seed, config.scenes, config.scene_size,
                              CORRUPT_FRACTION)

    def build():
        model = SPPNetDetector(SPPNetConfig(), seed=0)
        model.eval()
        compiled = compiled_for(model)
        compiled.warmup([1], (BANDS, WINDOW, WINDOW))
        return model, compiled

    # a traced run reports no setup_s, so it sets up once
    setup_mark = recorder.mark() if recorder is not None else 0
    with instrument(recorder):
        setup_s, (model, compiled), _ = timed_setups(
            build, None, 1 if recorder is not None else config.setup_reps)
    # each build starts from cleared caches and counters, so these now
    # hold what the last build did
    setup_counts = engine_counters()
    setup_end = recorder.mark() if recorder is not None else 0

    def window(label: str, rec=None):
        """Whole passes of sequential scans over the scenes until
        ``seconds`` have gone."""
        scans = []
        start = time.perf_counter()
        while True:
            for index, scene in enumerate(scenes):
                path = scratch.path(f"{label}-{index}")
                with maybe_span(rec, "scan"):
                    began = time.perf_counter()
                    try:
                        result = _scan(model, scene, path, n_workers=1)
                    except Exception as exc:  # counted, the loop goes on
                        out.check(False, f"{label} scan of scene {index} "
                                         f"raised {exc!r}")
                        result = None
                    took = time.perf_counter() - began
                scans.append((index, took, result, path))
            if time.perf_counter() - start >= seconds:
                return scans, time.perf_counter() - start

    before = engine_counters()
    with RssPeak() as rss:
        scans, elapsed = window("timed")
    window_counts = counter_delta(before, engine_counters())
    solves = window_counts["autotune_decisions"] + window_counts["sched_solves"]
    out.check(solves == 0, f"{solves} autotune decisions or IOS solves ran "
                           f"inside the timed window")

    # correctness: every pass over a scene gives the first pass's result,
    # and every reloaded journal rebuilds its scan
    first: dict[int, tuple] = {}
    out.attempted = len(scans)
    for index, _, result, path in scans:
        if result is None:
            out.failed += 1
            continue
        ref, ref_path = first.setdefault(index, (result, path))
        if not out.check(list(result) == list(ref)
                         and result.coverage == ref.coverage
                         and _journal_ok(path, result, ref_path),
                         f"scan of scene {index} ({path.name}) differs from "
                         f"its first scan or journal"):
            out.failed += 1

    done = [s for s in scans if s[2] is not None]
    results = [r for _, _, r, _ in done]
    scan_ms = [took * 1e3 for _, took, _, _ in scans]
    total_tiles = sum(r.coverage.tiles_total for r in results)
    out.e2e = {
        "setup_s": setup_s,
        "latency_p50_ms": median(scan_ms),
        "throughput_per_s": total_tiles / elapsed,
        "peak_rss_mb": rss.mb,
    }
    out.named = {
        "tiles_per_s": out.e2e["throughput_per_s"],
        "scan_p50_ms": out.e2e["latency_p50_ms"],
        "failed_share": out.failed / out.attempted,
    }
    out.details = {"scans": len(scans), "window_s": elapsed,
                   "tiles_per_scene": len(scan_origins(
                       config.scene_size, WINDOW, STRIDE))}
    out.labels = engine_labels(compiled, [1])
    if recorder is None:
        return out

    # traced: the same loop with spans; each scan's stage times must add
    # up to its wall time
    mark = recorder.mark()
    with instrument(recorder):
        traced_scans, _ = window("traced", recorder)
    spans = recorder.spans[mark:]
    worst = 0.0
    for scan_span in (s for s in spans if s.name == "scan"):
        staged = sum(s.ms for s in spans
                     if s.parent == scan_span.id and s.name in STAGES)
        worst = max(worst, abs(scan_span.ms - staged) / scan_span.ms)
    out.check(worst <= RECONCILE_TOLERANCE,
              f"stage times miss the scan wall time by {worst:.1%} "
              f"(tolerance {RECONCILE_TOLERANCE:.0%})")
    traced_tiles = sum(r.coverage.tiles_total
                       for _, _, r, _ in traced_scans if r is not None)
    appends = recorder.named("robust.journal_append", mark)
    traced_ms = [took * 1e3 for _, took, _, _ in traced_scans]
    parallel = _parallel_scans(out, model, scenes, first, scratch)
    out.layers = {
        "engine.build_ms": recorder.outer_ms(
            ("engine.compiled_for", "engine.warmup"), setup_mark, setup_end),
        "engine.autotune_decisions": setup_counts["autotune_decisions"],
        "engine.sched_solves": setup_counts["sched_solves"],
        "engine.sched_solve_ms": setup_counts["sched_solve_ms"],
        "engine.timed_window_solves": solves,
        "engine.predict_ms_per_chip.b1": recorder.ms_per_chip(mark, 1),
        "engine.guard_fallbacks": sum(r.coverage.engine_fallbacks
                                      for r in results),
        **engine_probe_layers(compiled, [1]),
        "scanpar.workers_auto": parallel["workers"],
        "scanpar.parallel_speedup": median(scan_ms) / parallel["p50_ms"],
        "scanpar.pool_spawn_ms": parallel["spawn_ms"],
        "scanpar.ensure_model_ms": parallel["ensure_model_ms"],
        "scanpar.pool_revives": parallel["revives"],
        "detect.nms_ms": (sum(s.ms for s in recorder.named("detect.nms", mark))
                          / len(traced_scans)),
        "detect.detections": sum(len(r) for r in results) / len(results),
        "robust.sanitize_ms_per_tile": sum(
            s.ms for s in recorder.named("robust.sanitize", mark))
            / traced_tiles,
        "robust.journal_append_ms": sum(s.ms for s in appends) / len(appends),
        "robust.journal_bytes_per_tile": sum(
            path.stat().st_size for _, _, _, path in done) / total_tiles,
        "robust.repaired_share": sum(r.coverage.tiles_repaired
                                     for r in results) / total_tiles,
        "robust.quarantined_share": sum(r.coverage.tiles_quarantined
                                        for r in results) / total_tiles,
        "trace.overhead_share": median(traced_ms) / median(scan_ms) - 1.0,
        "trace.reconcile_error": worst,
    }
    return out


def _parallel_scans(out, model, scenes, first, scratch) -> dict:
    """Scan each scene once with ``n_workers="auto"`` on the warm shared
    pool; each result must equal the sequential scan of that scene."""
    from repro.detect.scan import scan_origins
    from repro.scanpar import get_pool, resolve_n_workers, shutdown_pools

    size = scenes[0].size
    workers = resolve_n_workers(
        "auto", n_origins=len(scan_origins(size, WINDOW, STRIDE)),
        batch_size=BATCH_SIZE, pool_warm=True)
    pool = get_pool(workers) if workers > 1 else None
    start = time.perf_counter()
    if pool is not None:
        pool.ensure_model(model)
    ensure_ms = (time.perf_counter() - start) * 1e3
    try:
        # the first scan builds the workers' batch-1 programs
        _scan(model, scenes[0], scratch.path("parallel-warm"), "auto")
        times = []
        for index, scene in enumerate(scenes):
            path = scratch.path(f"parallel-{index}")
            began = time.perf_counter()
            result = _scan(model, scene, path, "auto")
            times.append((time.perf_counter() - began) * 1e3)
            ref, ref_path = first[index]
            out.attempted += 1
            if not out.check(list(result) == list(ref)
                             and result.coverage == ref.coverage
                             and _journal_ok(path, result, ref_path),
                             f"parallel scan of scene {index} differs from "
                             f"the sequential journaled scan"):
                out.failed += 1
        return {"workers": workers, "p50_ms": median(times),
                "spawn_ms": pool.spawn_ms if pool is not None else 0.0,
                "ensure_model_ms": ensure_ms,
                "revives": (pool.stats["workers_revived"]
                            if pool is not None else 0)}
    finally:
        shutdown_pools()
