"""chip_serve: open-loop chip requests against the deployed service.

One generator thread sends Poisson arrivals at 40, 80 and 120 req/s to
an ``InferenceService`` set up as deployed: engine backend,
``policy_from_fig6()``, result cache and admission validation on, one
model worker.  Chips are cut at seeded random offsets of a scene, and
20% of requests resend a chip sent within the last 200.  Each request's
latency counts from the moment it was due, so a stalled service charges
its stall to every request queued behind it; the report says how late
the generator itself ran.  This exercises the batcher, cache, admission
check and engine at batch 1-16 under a latency limit, and skips
``scanpar`` and journals.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from harness import (
    BANDS,
    CONFIDENCE,
    WINDOW,
    Outcome,
    RssPeak,
    counter_delta,
    engine_counters,
    engine_labels,
    engine_probe_layers,
    percentile,
    timed_setups,
)
from inputs import derived_seeds, serve_phases
from tracing import instrument

NAME = "chip_serve"
LIMIT_MS = 100.0
# Answers must match a direct CompiledModel.predict of the same chip to
# this absolute tolerance (batch composition changes float summation
# order), and agree on the 0.5 threshold unless the direct confidence
# lies within the tolerance of it.
ANSWER_ATOL = 1e-4
CHECKED_ANSWERS = 200


@dataclass(frozen=True)
class Config:
    """Phase lengths: the 40 req/s phase lasts a quarter of
    ``--seconds`` and the 120 req/s phase half of it; the 80 req/s phase
    sends at least ``min_requests_80`` requests, enough for its p99 to
    have ten samples beyond it, so chip_serve measures longer than
    ``--seconds`` when that is short."""

    scene_size: int = 512
    min_requests_80: int = 1000
    arch: object = None          # None: the Table 1 default SPPNetConfig()


@dataclass
class _Built:
    service: object
    start_ms: float
    extra_warmup_ms: float


@dataclass
class _PhaseResult:
    rate: float
    latency_ms: np.ndarray       # per request, NaN where it failed
    late_ms: np.ndarray
    submit_ms: np.ndarray
    queue_at_end: int
    wall_s: float
    errors: list
    answers: dict                # request index -> DetectionResult

    @property
    def ok(self) -> np.ndarray:
        return ~np.isnan(self.latency_ms)

    def passes(self, max_batch: int) -> bool:
        """p99 within the limit, nothing failed, and no backlog left
        when the last request was sent."""
        return (not self.errors and self.ok.all()
                and percentile(self.latency_ms, 99) <= LIMIT_MS
                and self.queue_at_end <= max_batch)

    def goodput(self) -> float:
        """Requests answered within the limit per second of the phase's
        wall time (its start to its last answer)."""
        within = np.count_nonzero(self.latency_ms[self.ok] <= LIMIT_MS)
        return within / self.wall_s


def _phase_plan(seconds: float, config: Config):
    n80 = max(config.min_requests_80, int(80 * 0.5 * seconds))
    return [(40, max(1, int(40 * 0.25 * seconds))), (80, n80),
            (120, max(1, int(120 * 0.5 * seconds)))]


def _run_phase(service, image, phase, rec=None) -> _PhaseResult:
    """Send one phase from a generator thread; wait for every answer."""
    n = len(phase.due_s)
    done = np.full(n, np.nan)
    late = np.zeros(n)
    submit = np.zeros(n)
    futures: list = [None] * n
    errors: list = []
    chips = [image[:, r:r + WINDOW, c:c + WINDOW] for r, c in phase.origins]
    # a future's result can be read before its callbacks have run
    recorded = threading.Semaphore(0)

    def finisher(i):
        def record(future):
            done[i] = time.perf_counter()
            recorded.release()
        return record

    def generate():
        for i in range(n):
            wait = start + phase.due_s[i] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            began = time.perf_counter()
            late[i] = began - start - phase.due_s[i]
            try:
                if rec is not None:
                    with rec.span("serve.submit"):
                        future = service.submit(chips[i])
                else:
                    future = service.submit(chips[i])
            except Exception as exc:  # refused: counted as failed
                errors.append((i, repr(exc)))
                continue
            finally:
                submit[i] = time.perf_counter() - began
            futures[i] = future
            future.add_done_callback(finisher(i))

    start = time.perf_counter()
    generator = threading.Thread(target=generate, name="perfbench-load")
    generator.start()
    generator.join()
    queue_at_end = service.queue_depth
    answers = {}
    for i, future in enumerate(futures):
        if future is None:
            continue
        try:
            answers[i] = future.result(timeout=60)
        except Exception as exc:  # timed out or failed in the service
            errors.append((i, repr(exc)))
        recorded.acquire(timeout=60)
    latency = (done - start - phase.due_s) * 1e3
    for i, _ in errors:
        latency[i] = np.nan
    finished = np.nanmax(done) if np.isfinite(done).any() else start
    return _PhaseResult(phase.rate, latency, late * 1e3, submit * 1e3,
                        queue_at_end, finished - start, errors, answers)


def _serve(service, image, phases, max_batch, rec=None):
    results = [_run_phase(service, image, p, rec) for p in phases]
    passing = [r for r in results if r.passes(max_batch)]
    return results, passing


def _check_answers(out, service, image, phases, results, seed) -> int:
    """A seeded sample of answers against direct engine predictions;
    returns how many differ."""
    compiled = service.engine.compiled
    answered = [(p, i) for p, (phase, res) in enumerate(zip(phases, results))
                for i in np.flatnonzero(res.ok)]
    rng = np.random.default_rng(derived_seeds(seed, 1, stream=4)[0])
    picks = rng.choice(len(answered), size=min(CHECKED_ANSWERS, len(answered)),
                       replace=False)
    wrong = 0
    for k in picks:
        p, i = answered[int(k)]
        r, c = phases[p].origins[i]
        chip = np.ascontiguousarray(image[None, :, r:r + WINDOW, c:c + WINDOW])
        conf, box = compiled.predict(chip, batch_size=1)
        served = results[p].answers[i]
        near = abs(float(conf[0]) - CONFIDENCE) <= ANSWER_ATOL
        same = (abs(served.confidence - float(conf[0])) <= ANSWER_ATOL
                and np.allclose(served.box, box[0], atol=ANSWER_ATOL)
                and (near or (served.confidence >= CONFIDENCE)
                     == (float(conf[0]) >= CONFIDENCE)))
        wrong += not out.check(
            same, f"answer for the chip at {(r, c)} ({served.confidence}) "
                  f"differs from a direct predict ({float(conf[0])})")
    return wrong


def run(seed: int, seconds: float, recorder=None, scratch=None,
        config: Config = Config()) -> Outcome:
    from repro.arch import SPPNetConfig
    from repro.detect import SPPNetDetector
    from repro.geo import build_scene
    from repro.serve import InferenceService, policy_from_fig6

    out = Outcome(NAME)
    chip_seed = derived_seeds(seed, 1, stream=5)[0]
    image = build_scene(seed=chip_seed, size=config.scene_size).image
    plan = _phase_plan(seconds, config)
    phases = serve_phases(seed, plan, config.scene_size)
    policy = policy_from_fig6()
    arch = config.arch or SPPNetConfig()

    def build() -> _Built:
        model = SPPNetDetector(arch, seed=0)
        start = time.perf_counter()
        service = InferenceService(model, policy, backend="engine",
                                   num_workers=1)
        started = time.perf_counter()
        # the service warms {1, max_batch}; the batcher can dispatch
        # every size in between, so warm those too before timing
        extra = [b for b in range(2, policy.max_batch)]
        service.engine.warmup(extra, (BANDS, WINDOW, WINDOW))
        return _Built(service, (started - start) * 1e3,
                      (time.perf_counter() - started) * 1e3)

    setup_mark = recorder.mark() if recorder is not None else 0
    # Set-up is measured once: warming 16 batch sizes from cold takes
    # tens of seconds, more than a run can repeat.
    with instrument(recorder):
        setup_s, built, _ = timed_setups(build, None, 1)
    # each build starts from cleared caches and counters, so these
    # now hold what the last build did
    setup_counts = engine_counters()
    setup_end = recorder.mark() if recorder is not None else 0
    service = built.service
    try:
        before = engine_counters()
        snap0 = service.metrics.snapshot()
        with RssPeak() as rss:
            results, passing = _serve(service, image, phases,
                                      policy.max_batch)
        window = counter_delta(before, engine_counters())
        solves = window["autotune_decisions"] + window["sched_solves"]
        out.check(solves == 0, f"{solves} autotune decisions or IOS solves "
                               f"ran inside the timed window")
        out.attempted = sum(len(r.latency_ms) for r in results)
        refused = sum(int((~r.ok).sum()) for r in results)
        out.check(refused == 0, f"{refused} requests failed: "
                  f"{[e for r in results for e in r.errors][:3]}")
        out.failed = refused + _check_answers(out, service, image, phases,
                                              results, seed)
        at80 = next(r for r in results if r.rate == 80)
        best = max(passing, key=lambda r: r.rate) if passing else None
        # Goodput at 80 req/s rather than the highest passing rate or
        # goodput at 120 req/s: on a 2-core host 120 req/s sits at the
        # service's capacity and p99 at 80 req/s near the 100 ms limit,
        # so both flip between runs.
        out.e2e = {
            "setup_s": setup_s,
            "latency_p50_ms": percentile(at80.latency_ms[at80.ok], 50),
            "throughput_per_s": at80.goodput(),
            "peak_rss_mb": rss.mb,
        }
        out.named = {
            "serve_p50_ms": out.e2e["latency_p50_ms"],
            "serve_p99_ms": percentile(at80.latency_ms[at80.ok], 99),
            "serve_max_rps": best.rate if best else 0.0,
            "failed_share": out.failed / out.attempted,
        }
        out.details = {"phases": [_phase_summary(r) for r in results],
                       "max_batch": policy.max_batch,
                       "cache_hit_rate": _hit_rate(
                           snap0, service.metrics.snapshot())}
        out.labels = engine_labels(service.engine.compiled,
                                   range(1, policy.max_batch + 1))
        if recorder is None:
            return out

        # replay the same schedule, so traced and untraced latencies
        # compare like for like
        mark = recorder.mark()
        snap1 = service.metrics.snapshot()
        with instrument(recorder):
            traced, _ = _serve(service, image, phases, policy.max_batch,
                               recorder)
        snap2 = service.metrics.snapshot()
        batches = recorder.named("robust.guard", mark)
        traced80 = next(r for r in traced if r.rate == 80)
        out.layers = {
            "engine.build_ms": recorder.outer_ms(
                ("engine.compiled_for", "engine.warmup"), setup_mark, setup_end),
            "engine.autotune_decisions": setup_counts["autotune_decisions"],
            "engine.sched_solves": setup_counts["sched_solves"],
            "engine.sched_solve_ms": setup_counts["sched_solve_ms"],
            "engine.timed_window_solves": solves,
            "engine.predict_ms_per_chip.b1": recorder.ms_per_chip(mark, 1),
            "engine.predict_ms_per_chip.multi": recorder.ms_per_chip(
                mark, "multi"),
            "engine.guard_fallbacks": sum(
                service.engine.fallback_by_reason.values()),
            **engine_probe_layers(service.engine.compiled,
                                  [1, policy.max_batch]),
            "serve.submit_ms": float(np.mean(np.concatenate(
                [r.submit_ms for r in traced]))),
            "serve.cache_hit_rate": _hit_rate(snap1, snap2),
            "serve.mean_batch_size": (
                sum(s.args.get("batch", 0) for s in
                    recorder.named("engine.predict", mark)) / len(batches)
                if batches else 0.0),
            "serve.batch_ms": (sum(s.ms for s in batches) / len(batches)
                               if batches else 0.0),
            "serve.queue_depth_peak": snap2["queue_depth_peak"],
            "serve.start_ms": built.start_ms,
            "serve.extra_warmup_ms": built.extra_warmup_ms,
            "serve.rejected": snap2["rejected"] - snap0["rejected"],
            "serve.timeouts": snap2["timeouts"] - snap0["timeouts"],
            "serve.generator_late_ms": percentile(
                np.concatenate([r.late_ms for r in traced]), 99),
            "trace.overhead_share": (
                percentile(traced80.latency_ms[traced80.ok], 50)
                / out.e2e["latency_p50_ms"] - 1.0),
        }
        return out
    finally:
        service.shutdown()


def _hit_rate(a: dict, b: dict) -> float:
    hits = b["cache_hits"] - a["cache_hits"]
    lookups = hits + b["cache_misses"] - a["cache_misses"]
    return hits / lookups if lookups else 0.0


def _phase_summary(res: _PhaseResult) -> dict:
    ok = res.latency_ms[res.ok]
    return {
        "rate": res.rate, "requests": len(res.latency_ms),
        "failed": int((~res.ok).sum()),
        "p50_ms": percentile(ok, 50) if len(ok) else None,
        "p95_ms": percentile(ok, 95) if len(ok) else None,
        "p99_ms": percentile(ok, 99) if len(ok) else None,
        "late_p99_ms": percentile(res.late_ms, 99),
        "queue_at_end": res.queue_at_end,
        "goodput_per_s": res.goodput(),
    }
