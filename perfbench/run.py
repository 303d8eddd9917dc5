"""Benchmark for abwscl: composability checks on the corpus, checks of
send-deletion mutants, and seeded runs of the bundled choreography.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload check-corpus --seed 1 --seconds 20 --trace 0

One process, one caller, closed loop: each operation starts when the
previous one has returned.  Inputs come from `--seed` only.  The program
is imported from `src/` of the checkout; without it the benchmark exits
with status 2 and prints no result.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs one pass
untraced, then traced passes for `--seconds`, and prints the per-layer
metrics with the tracing overhead; spans go to `perfbench/out/`.  Either
way the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from tracer import MOVES, Tracer, layer_metrics
from workloads import WORKLOADS, Mismatch

PERF = time.perf_counter
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 16  # set-ups per run, spread over the passes; setup_s is their median


def _fresh_import():
    """Import the package anew, so every set-up pays for the import."""
    for name in [n for n in sys.modules if n == "abwscl" or n.startswith("abwscl.")]:
        del sys.modules[name]
    abw = importlib.import_module("abwscl")
    if not Path(abw.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"abwscl was imported from {abw.__file__}, not from {SRC}")
    return abw


def set_up(workload, seed, tracer=None):
    """Import, parse, validate and build the inputs; (workload, seconds)."""
    started = PERF()
    abw = _fresh_import()
    if tracer is not None:
        tracer.install(abw)
    with tracer.region("setup") if tracer is not None else nullcontext():
        text = abw.corpus_path().read_text(encoding="utf-8")
        wl = workload(abw, text, random.Random(seed))
    return wl, PERF() - started


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_s = []
        self.pass_s = []
        self.pass_states = []
        self.states = 0
        self.work_s = 0.0


def run_pass(wl, tally, tracer=None):
    gc.collect()
    ops = wl.pass_ops()
    states = 0
    started = PERF()
    for label, op in ops:
        tally.attempted += 1
        t0 = PERF()
        try:
            with tracer.region(label) if tracer is not None else nullcontext():
                n, work_s = op()
        except Mismatch as e:
            tally.failed += 1
            print(f"wrong answer: {label}: {e}", file=sys.stderr)
        except Exception:  # one failed operation must not end the run
            tally.failed += 1
            print(f"failed: {label}", file=sys.stderr)
            traceback.print_exc()
        else:
            states += n
            tally.states += n
            tally.work_s += work_s
        tally.op_s.append(PERF() - t0)
    tally.pass_s.append(PERF() - started)
    tally.pass_states.append(states)


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "abwscl").glob("*.py")))


def measured(workload, seed, seconds):
    wl, t = set_up(workload, seed)
    setup_s = [t]
    tally = Tally()
    started = PERF()
    while True:
        run_pass(wl, tally)
        elapsed = PERF() - started
        # set-ups spread over the run see more of the machine's speed drifts
        while len(setup_s) < min(SETUPS, SETUPS * elapsed / seconds):
            setup_s.append(set_up(workload, seed)[1])
        if elapsed >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tail, tail_how = wl.tail(tally.op_s)
    states = statistics.median_low(tally.pass_states)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        # A mean: on a shared host whose speed changes every few seconds,
        # the median of short passes snaps to the fast or the slow level
        # from run to run, while the mean moves with the share of each.
        "pass_s": (statistics.fmean(tally.pass_s), "s"),
        "op_tail_s": (tail, "s"),
        "states_explored": (states, "states"),
        "states_per_s": (tally.states / tally.work_s if tally.work_s else 0.0, "states/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    lines = [
        f"set-ups {len(setup_s)}, passes {len(tally.pass_s)}, operations {len(tally.op_s)}",
        f"op_p50_s {statistics.median(tally.op_s)} s (median operation; printed, not gated)",
        f"op_tail_s is the {tail_how}",
        f"fail_ratio {tally.failed / tally.attempted} ({tally.failed} of {tally.attempted})",
        f"src lines {src_lines()} (src/abwscl/*.py)",
    ] + wl.notes(states)
    return tally, metrics, lines


def traced(workload, seed, seconds):
    tracer = Tracer()
    wl, _t = set_up(workload, seed, tracer)
    setup = tracer.take()
    tracer.remove()
    tally = Tally()
    run_pass(wl, tally)
    untraced_s = tally.pass_s[0]
    tracer.install(wl.abw)
    deadline = PERF() + seconds
    run_pass(wl, tally, tracer)
    while PERF() < deadline:
        run_pass(wl, tally, tracer)
    passes = tracer.take()
    tracer.remove()
    n_traced = len(tally.pass_s) - 1
    metrics = layer_metrics(setup, passes, n_traced,
                            statistics.fmean(tally.pass_s[1:]), untraced_s)
    spans = ROOT / "perfbench" / "out" / f"spans-{wl.name}-{seed}.jsonl"
    tracer.write_spans(spans)
    absent = sorted(name for name in MOVES if name not in metrics)
    lines = [
        f"traced passes {n_traced} after 1 untraced pass; spans in {spans.relative_to(ROOT)}",
        f"fail_ratio {tally.failed / tally.attempted} ({tally.failed} of {tally.attempted})",
    ] + [f"absent (wrapped name gone): {name}" for name in absent]
    groups = {}
    for name in sorted(MOVES):
        if name in metrics:
            groups.setdefault(MOVES[name], []).append(name)
    lines += [f"should move {moves}: {', '.join(names)}" for moves, names in groups.items()]
    return tally, metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "abwscl" / "__init__.py").is_file():
        print(f"no abwscl source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"closed loop with 1 caller, trace {args.trace}")
    run = traced if args.trace else measured
    tally, metrics, lines = run(workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
