"""Deployment benchmark: one command, three workloads, traced layers.

Usage, from the repository root::

    python3 perfbench/run.py --workload chip_serve --seed 1 --seconds 8 --trace 0

``--trace 0`` measures with the program unchanged and reports the
end-to-end metrics listed in ``BENCHMARK.json``.  ``--trace 1`` runs the
same workload, then runs it again with spans recorded around each
layer's public calls, and reports the per-layer metrics instead; a layer
the workload does not use reads 0.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result
(environment, per-phase figures, kernel and schedule labels) and, when
tracing, a chrome://tracing file go to ``.perfbench_out/``.

The exit code is 0 only when every correctness check passed.

The command measures in a child process of its own and, on Linux,
adopts every process that child leaves behind (pool workers,
``multiprocessing``'s resource tracker) as a child subreaper; it returns
only after each of them has ended.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Set in the child that measures; its absence marks the supervisor.
CHILD_ENV = "PERFBENCH_MEASURING_CHILD"
PR_SET_CHILD_SUBREAPER = 36
# How long leftover processes get to end by themselves before they are
# sent SIGTERM, and SIGKILL after as long again.
REAP_GRACE_S = 10.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _workloads() -> dict:
    import chip_serve
    import journaled_scan
    import nas_sweep

    return {m.NAME: m for m in (chip_serve, journaled_scan, nas_sweep)}


def _self_time_table(recorder) -> dict[str, float]:
    """Total self milliseconds per span name."""
    own = recorder.self_ms()
    table: dict[str, float] = {}
    for span in recorder.spans:
        table[span.name] = table.get(span.name, 0.0) + own[span.id]
    return dict(sorted(table.items(), key=lambda kv: -kv[1]))


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from harness import OUT_DIR, Scratch, environment
    from tracing import SpanRecorder, write_chrome_trace

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = _workloads()
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads)}", file=sys.stderr)
        return 2

    env = environment()
    recorder = SpanRecorder() if args.trace else None
    scratch = Scratch(OUT_DIR / f"scratch-{os.getpid()}")
    try:
        outcome = workloads[args.workload].run(
            args.seed, args.seconds, recorder=recorder, scratch=scratch)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(scratch.root, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    source = outcome.layers if args.trace else outcome.e2e
    unknown = set(source) - {entry["name"] for entry in spec[section]}
    if unknown:
        print(f"perfbench: {args.workload} reported metrics that "
              f"BENCHMARK.json does not list: {sorted(unknown)}",
              file=sys.stderr)
        return 1
    metrics = {}
    for entry in spec[section]:
        if not args.trace and entry["name"] not in source:
            print(f"perfbench: {args.workload} did not measure "
                  f"{entry['name']}", file=sys.stderr)
            return 1
        metrics[entry["name"]] = {"value": float(source.get(entry["name"], 0.0)),
                                  "unit": entry["unit"]}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "metrics": metrics, "named": outcome.named,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "problems": outcome.problems, "labels": outcome.labels,
        "details": outcome.details,
    }
    if recorder is not None:
        report["self_ms_by_span"] = _self_time_table(recorder)
        write_chrome_trace(OUT_DIR / f"{stem}.trace.json", recorder,
                           {"workload": args.workload, "seed": args.seed,
                            "environment": env, "labels": outcome.labels})
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=2))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}")
    print("environment " + json.dumps(env))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
    for name, value in outcome.named.items():
        print(f"  {name:40s} {value:14.4f}  (named figure)")
    print("labels " + json.dumps(outcome.labels))
    if recorder is not None:
        print("self ms by span " + json.dumps(
            {k: round(v, 3) for k, v in report["self_ms_by_span"].items()}))
    for problem in outcome.problems:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps({"correct": outcome.correct,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if outcome.correct else 1


def _become_subreaper() -> None:
    """Make orphaned descendants this process's children (Linux only;
    elsewhere they go to init and only the direct child is waited for)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    """Live children of this process, read from ``/proc``."""
    me, found = os.getpid(), []
    for entry in Path("/proc").iterdir() if Path("/proc").is_dir() else ():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[1]) == me and fields[0] != "Z":
            found.append(int(entry.name))
    return found


def _reap_all() -> list[int]:
    """Wait for every child, adopted orphans included; children still
    alive after the grace period are terminated, then killed.  Returns
    the pids that had to be signalled."""
    start = time.monotonic()
    signalled: list[int] = []
    sent = {}
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return signalled
        if pid:
            continue
        waited = time.monotonic() - start
        if waited > REAP_GRACE_S:
            sig = signal.SIGKILL if waited > 2 * REAP_GRACE_S else signal.SIGTERM
            for child in _children():
                if sent.get(child) != sig:
                    sent[child] = sig
                    signalled.append(child)
                    try:
                        os.kill(child, sig)
                    except ProcessLookupError:
                        pass
        time.sleep(0.02)


def supervise(argv) -> int:
    """Run :func:`main` in a child process, then wait until every
    process it started has ended; returns the child's exit code."""
    _become_subreaper()
    child = subprocess.Popen([sys.executable, __file__, *argv],
                             env={**os.environ, CHILD_ENV: "1"})

    def forward(signum, _frame):
        child.send_signal(signum)

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, forward)
    code = child.wait()
    signalled = _reap_all()
    if signalled:
        print(f"perfbench: processes {sorted(set(signalled))} outlived the "
              f"run by {REAP_GRACE_S:.0f} s and were stopped", file=sys.stderr)
    return code


if __name__ == "__main__":
    if os.environ.get(CHILD_ENV):
        sys.exit(main())
    sys.exit(supervise(sys.argv[1:]))
