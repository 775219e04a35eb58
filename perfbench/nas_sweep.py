"""nas_latency_sweep: closed loop of engine latency measurements.

One caller walks a fixed seeded sample of architectures from
``sppnet_search_space()`` (see :func:`inputs.nas_blocks`), measures each
with ``measure_latency_ms(backend="engine", batch=1)`` and appends it to
a ``TrialJournal``.  Every candidate builds a new engine program (trace,
fusion, planning, conv autotuning and the IOS solve), so this is the
only workload dominated by the engine's build path; the other workloads
pay that cost once, inside ``setup_s``.

Each block of seven candidates runs in a fresh process, set up from
cold.  Every compiled candidate stays resident after its measurement:
the engine's per-model compile cache holds the compiled program, and
the program holds the model, so the cache's weak key never dies and
resident memory grows by roughly 100 MB per candidate.  A process per
block bounds that growth and gives every block the same cold start.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import time
from concurrent.futures import ProcessPoolExecutor

from harness import (
    Outcome,
    RssPeak,
    engine_counters,
    engine_labels,
    engine_probe_layers,
    median,
    timed_setups,
)
from inputs import nas_blocks
from tracing import SpanRecorder, instrument, maybe_span

NAME = "nas_latency_sweep"
BUILD_SPANS = ("engine.compiled_for", "engine.warmup")


def _block(seed: int, index: int, first_id: int, journal_path: str,
           traced: bool) -> dict:
    """Set up from cold, then measure block ``index``; runs in its own
    process and returns what it measured."""
    from repro.arch import SPPNetConfig
    from repro.nas import (
        TrialJournal,
        TrialRecord,
        config_from_sample,
        measure_latency_ms,
    )

    recorder = SpanRecorder() if traced else None
    problems = []
    # Set-up pays what a sweep process pays once (imports, thread
    # pools, BLAS) by building and measuring the Table 1 default.
    with instrument(recorder):
        setup_s, _, _ = timed_setups(
            lambda: measure_latency_ms(SPPNetConfig(), backend="engine",
                                       batch=1), None, 1)
    setup_end = recorder.mark() if traced else 0
    journal = TrialJournal(journal_path)
    trials, times = [], []
    start = time.perf_counter()
    with RssPeak() as rss, instrument(recorder, count_solves=True):
        for sample in nas_blocks(seed)[index]:
            began = time.perf_counter()
            with maybe_span(recorder, "nas.candidate"):
                try:
                    latency = measure_latency_ms(
                        config_from_sample(sample), backend="engine",
                        batch=1)
                except Exception as exc:  # counted, the sweep goes on
                    problems.append(f"candidate {sample} raised {exc!r}")
                    latency = math.nan
                record = TrialRecord(
                    trial_id=first_id + len(trials), sample=sample,
                    value=latency, metrics={"latency_ms": latency},
                    duration_s=time.perf_counter() - began,
                    status="ok" if math.isfinite(latency) else "failed")
                journal.append(record)
            trials.append(record)
            times.append(time.perf_counter() - began)
    result = {"setup_s": setup_s, "trials": trials, "times": times,
              "elapsed": time.perf_counter() - start, "rss": rss.mb,
              "problems": problems, "counts": engine_counters()}
    if traced:
        result["setup_build_ms"] = recorder.outer_ms(BUILD_SPANS, 0,
                                                     setup_end)
        result["spans"] = recorder.spans
    return result


def _blocks(seed: int, count: int, path, traced: bool) -> list[dict]:
    """The first ``count`` blocks of the sample, each in a fresh
    process."""
    done: list[dict] = []
    ctx = mp.get_context("spawn")
    for index in range(count):
        first_id = sum(len(b["trials"]) for b in done)
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            done.append(pool.submit(_block, seed, index, first_id, str(path),
                                    traced).result())
    return done


def run(seed: int, seconds: float, recorder=None, scratch=None,
        blocks: int = 5) -> Outcome:
    """Measure ``blocks`` blocks of the sample; all five are 35
    candidates, about 10 s of measuring on a 2-core host.  The sample is
    fixed work so that every run measures the same width-level mix;
    ``seconds`` does not change it.
    """
    from repro.arch import SPPNetConfig
    from repro.detect import SPPNetDetector
    from repro.engine import compiled_for
    from repro.nas import TrialJournal

    out = Outcome(NAME)
    path = scratch.path("timed")
    done = _blocks(seed, blocks, path, traced=False)
    trials = [t for b in done for t in b["trials"]]
    times = [t for b in done for t in b["times"]]
    for b in done:
        out.problems.extend(b["problems"])
    out.attempted = len(trials)
    for trial in trials:
        if not out.check(math.isfinite(trial.value) and trial.value > 0,
                         f"candidate {trial.sample} measured {trial.value}"):
            out.failed += 1
    out.check(TrialJournal(path).load() == trials,
              "the trial journal does not replay to the recorded trials")
    out.e2e = {
        "setup_s": median([b["setup_s"] for b in done]),
        "latency_p50_ms": median(times) * 1e3,
        "throughput_per_s": len(trials) / sum(b["elapsed"] for b in done),
        "peak_rss_mb": max(b["rss"] for b in done),
    }
    out.named = {"candidates_per_s": out.e2e["throughput_per_s"],
                 "failed_share": out.failed / out.attempted}
    out.details = {"candidates": len(trials), "blocks": blocks}
    if recorder is None:
        return out

    traced = _blocks(seed, blocks, scratch.path("traced"), traced=True)
    for b in traced:
        out.problems.extend(b["problems"])
        recorder.spans.extend(b["spans"])
    n = sum(len(b["trials"]) for b in traced)
    in_candidate = {s.id for s in recorder.spans if s.name == "nas.candidate"}
    predicts = [s for s in recorder.spans if s.name == "engine.predict"
                and "solves" in s.args]
    appends = recorder.named("nas.journal_append")
    sweep_builds = sum(s.ms for s in recorder.spans
                       if s.name in BUILD_SPANS and s.parent in in_candidate)
    model = SPPNetDetector(SPPNetConfig(), seed=0)
    model.eval()
    compiled = compiled_for(model)
    compiled.warmup([1])
    out.layers = {
        "engine.build_ms": median([b["setup_build_ms"] for b in traced]),
        **{f"engine.{k}": sum(b["counts"][k] for b in traced)
           for k in ("autotune_decisions", "sched_solves", "sched_solve_ms")},
        "engine.timed_window_solves": sum(s.args["solves"]
                                          for s in predicts),
        "engine.predict_ms_per_chip.b1": (sum(s.ms for s in predicts)
                                          / sum(s.args["batch"]
                                                for s in predicts)),
        **engine_probe_layers(compiled, [1]),
        "nas.build_ms_per_candidate": sweep_builds / n,
        "nas.measure_ms_per_candidate": sum(s.ms for s in predicts) / n,
        "nas.journal_append_ms": sum(s.ms for s in appends) / len(appends),
        "trace.overhead_share": (
            median([t for b in traced for t in b["times"]])
            / median(times) - 1.0),
    }
    out.check(out.layers["engine.timed_window_solves"] == 0,
              "autotune decisions or IOS solves ran inside timed passes")
    out.labels = engine_labels(compiled, [1])
    return out
