"""Benchmark of godellab: set-up time, cold-pass time and peak memory.

    python3 godelbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0
    python3 godelbench/run.py            # all three workloads, one process each

A run imports the lab from the checkout's `src/` and builds the
workload's inputs several times (the median is `setup_s`), then repeats
cold passes of the workload's fixed work for about `--seconds` seconds
(the median is `pass_s`).  Every pass starts from cleared evaluator and
oracle caches and a full garbage collection.  `peak_rss_mb` is read
when the passes end, before the outputs are checked.  The outputs of
every pass must agree, and those of the first pass are checked against
the reference interpreter or against properties the method must have.

With `--trace 1` the layer functions are wrapped in spans (see
tracer.py) and the run reports per-layer figures instead: the last
set-up plus, for each figure, its median over the traced passes.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("numbering", "spaces", "oracles", "problems", "learners",
           "reductions", "corpus", "cli")
# standard modules the lab imports, loaded before the first timed set-up
# so that every set-up does the same work
PRELOAD = ("argparse", "dataclasses", "itertools", "json", "math",
           "random", "typing")
SETUP_REPEATS = 11
MIN_PASSES = 3


class Lab:
    """One fresh import of every godellab module."""

    def __init__(self):
        for name in [m for m in sys.modules
                     if m == "godellab" or m.startswith("godellab.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"godellab.{name}"))

    def all(self):
        return [getattr(self, name) for name in MODULES]


def measure(workload, seed: int, seconds: int, trace: bool, workdir: Path):
    tracer = tracing.Tracer() if trace else None
    for name in PRELOAD:
        importlib.import_module(name)

    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        if tracer:
            tracer.reset()
        t0 = time.perf_counter()
        lab = Lab()
        if tracer:
            tracer.install(lab)
        state = workload.build(lab, seed, workdir)
        setups.append(time.perf_counter() - t0)
    if Path(lab.numbering.__file__).resolve().parent != SRC / "godellab":
        raise RuntimeError(f"imported godellab from {lab.numbering.__file__}")
    setup_layers = tracer.totals() if tracer else None

    passes, layers, drifted, first = [], [], [], None
    started = time.perf_counter()
    while True:
        lab.numbering.clear_eval_cache()
        lab.oracles.clear_oracle_cache()
        gc.collect()
        if tracer:
            tracer.reset()
        t0 = time.perf_counter()
        raw = workload.run_pass(lab, state)
        passes.append(time.perf_counter() - t0)
        if tracer:
            layers.append(tracer.totals())
        out = workload.collect(lab, state, raw)
        del raw
        if first is None:
            first = out
        elif out != first:
            drifted.append(len(passes))
        del out
        spent = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and spent + statistics.median(passes) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{workload.name} set-ups (s): {' '.join(f'{t:.4f}' for t in setups)}",
          file=sys.stderr)
    print(f"{workload.name} passes (s): {' '.join(f'{t:.3f}' for t in passes)}",
          file=sys.stderr)

    verdict = workload.check(lab, state, first)
    verdict.errors += [f"pass {k} gave other outputs than pass 1" for k in drifted]
    for note in verdict.errors:
        print(f"WRONG {workload.name}: {note}", file=sys.stderr)
    for kind, count in sorted(verdict.failures.items()):
        print(f"failed {workload.name}: {count} ops per pass: {kind}", file=sys.stderr)

    if tracer:
        metrics = {"traced.pass_s": (statistics.median(passes), "s")}
        for key in setup_layers:
            unit = layer_unit(key)
            # counts repeat exactly from pass to pass; times are medians
            mid = statistics.median if unit == "s" else statistics.median_low
            metrics[key] = (setup_layers[key] + mid([p[key] for p in layers]), unit)
        calls = metrics["oracles.window_verify.calls"][0]
        metrics["oracles.window_verify.true_share"] = (
            metrics["oracles.window_verify.true"][0] / calls if calls else 0.0,
            "ratio")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{workload.name}-seed{seed}.json")
    else:
        metrics = {"setup_s": (statistics.median(setups), "s"),
                   "pass_s": (statistics.median(passes), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    return {
        "correct": not verdict.errors,
        "attempted": verdict.attempted * len(passes),
        "failed": verdict.failed * len(passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_unit(key: str) -> str:
    last = key.rsplit(".", 1)[-1]
    return {"s": "s", "self_s": "s", "bits": "bits"}.get(last, "count")


def run_one(args) -> int:
    if not (SRC / "godellab" / "__init__.py").is_file():
        print(f"error: no godellab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        result = measure(workloads.WORKLOADS[args.workload], args.seed,
                         args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} ops attempted = {result['attempted']}, "
          f"failed = {result['failed']}, correct = {result['correct']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results, worst = {}, 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        if proc.returncode == 0 and lines:
            results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("all",) + tuple(workloads.WORKLOADS),
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
