"""Batch front end: corpus generation, learner runs, least-index
tables, reduction checks, trace export.

Config files are line-oriented key=value over the keys index_bound,
cap, window, stability_window, max_steps, ceiling.  Flags override the
file, built-in defaults fill the rest.  Result files never embed
timing, so identical (command, config, seed, inputs) reproduce them
byte for byte; wall-clock goes to the manifest only.

Exit codes: 0 all checks pass, 1 semantic failure with witnesses
recorded, 2 usage or parse error.

Learner promises: amalgamation needs a universe bound m and the
shrinking-set learner a bound k.  Corpus lines may carry them as m= and
k= annotations; for lines without one the driver fills in the least
index itself, which satisfies the promise by definition and is echoed
in the summary row.

The enum-total learner searches the compiled loop image, which is empty
in a fresh process; the driver seeds a small standard library (identity,
constants 0..2, add one to three, doubling) before the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

from .corpus import (
    CORPUS_KINDS,
    CorpusEntry,
    format_entry,
    read_corpus,
    to_reduction_instance,
    write_corpus,
)
from .learners import (
    LearnerConfig,
    PromiseViolation,
    amalgamation_learn,
    bounded_min_learner,
    enum_learner,
    kol_liminf_enumerator,
    run_summary,
    run_to_limit,
    trace_to_csv,
)
from .numbering import (
    BudgetExceeded,
    Copy,
    Inc,
    Loop,
    ZeroR,
    compile_loop,
    decode,
    evaluate,
    format_program,
)
from .oracles import OracleConfig, min_index, window_verify
from .problems import ProblemConfig
from .reductions import (
    MUTATION_MODES,
    check_reduction,
    mutate,
    reduction_registry,
    report_to_json,
)

DEFAULTS = {
    "index_bound": 120,
    "cap": 400,
    "window": 8,
    "stability_window": 4,
    "max_steps": 4000,
    "ceiling": 60,
}

LEARNERS = ("enum-full", "enum-total", "amalgamation", "bounded-min", "liminf")


def read_config(path: str) -> dict[str, int]:
    values: dict[str, int] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if not sep or key not in DEFAULTS or not val.isdigit():
                raise ValueError(f"{path}:{lineno}: expected <known key>=<nat>, "
                                 f"got {line!r}")
            values[key] = int(val)
    return values


def resolve_config(args) -> dict[str, int]:
    values = dict(DEFAULTS)
    if getattr(args, "config", None):
        values.update(read_config(args.config))
    for key in ("index_bound", "cap", "window", "stability_window"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def learner_config(values: dict[str, int]) -> LearnerConfig:
    return LearnerConfig(
        index_bound=values["index_bound"],
        window=values["window"],
        cap=values["cap"],
        stability_window=values["stability_window"],
        max_steps=values["max_steps"],
    )


def problem_config(values: dict[str, int]) -> ProblemConfig:
    oracle = OracleConfig(cap=values["cap"], window=values["window"],
                          index_bound=values["index_bound"])
    return ProblemConfig(oracle, values["ceiling"])


@dataclass(frozen=True)
class RunManifest:
    command: str
    config: dict
    seed: int | None
    inputs: tuple
    outputs: tuple
    elapsed_s: float


def _write_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _emit_manifest(out_dir: str, manifest: RunManifest) -> None:
    payload = {
        "command": manifest.command,
        "config": manifest.config,
        "seed": manifest.seed,
        "inputs": list(manifest.inputs),
        "outputs": list(manifest.outputs),
        "elapsed_s": manifest.elapsed_s,
    }
    _write_text(os.path.join(out_dir, "manifest.json"),
                json.dumps(payload, sort_keys=True) + "\n")


def _load_corpus(path: str) -> list[CorpusEntry]:
    with open(path) as fh:
        return read_corpus(fh)


# ---------------------------------------------------------------------------
# commands


def cmd_enumerate(args) -> int:
    values = resolve_config(args)
    for index in range(args.start, args.stop + 1):
        text = format_program(decode(index)).replace("\n", "; ") or "(empty)"
        cells = []
        for n in range(values["window"] + 1):
            out = evaluate(index, n, values["cap"])
            cells.append(str(out.value) if not isinstance(out, BudgetExceeded)
                         else "?")
        print(f"{index}\t{text}\t{','.join(cells)}")
    return 0


# the total class is the compiled loop image, empty in a fresh process;
# the driver seeds a small standard library so enum-total has a universe
_STANDARD_LOOPS = (
    (),
    (Inc(0),),
    (Inc(0), Inc(0)),
    (Inc(0), Inc(0), Inc(0)),
    (ZeroR(0),),
    (ZeroR(0), Inc(0)),
    (ZeroR(0), Inc(0), Inc(0)),
    (Loop(0, (Inc(1), Inc(1))), Copy(1, 0)),
)


def _seed_total_class() -> None:
    for stmts in _STANDARD_LOOPS:
        compile_loop(stmts)


def _failure_row(name: str, learner: str, reason: str, **extra) -> dict:
    row = {"instance": name, "learner": learner, "converged": False,
           "verified": False, "error": reason}
    row.update(extra)
    return row


def _learn_one(entry: CorpusEntry, learner: str, lcfg: LearnerConfig,
               oracle: OracleConfig):
    """One corpus run: (summary row, trace or None)."""
    d = entry.descriptor
    name = format_entry(entry)
    if learner in ("enum-full", "enum-total"):
        trace = enum_learner(d, learner.split("-")[1], lcfg)
        verified = trace.converged and window_verify(
            trace.guesses[-1], d, oracle)
        return json.loads(run_summary(name, learner, trace, verified)), trace
    if learner == "liminf":
        stages = kol_liminf_enumerator(d, lcfg)
        mins = [min(stage) for stage in stages if stage]
        trace = run_to_limit(mins, lcfg.stability_window, max(len(mins), 1))
        verified = bool(mins) and mins[-1] == min_index(d, oracle)
        return json.loads(run_summary(name, learner, trace, verified)), trace
    if learner == "amalgamation":
        bound = entry.m if entry.m is not None else min_index(d, oracle)
        if bound is None:
            return _failure_row(name, learner,
                                "no index inside the universe"), None
        got = amalgamation_learn(d, bound, lcfg)
        if isinstance(got, PromiseViolation):
            return _failure_row(name, learner, got.reason, m=bound), None
        row = json.loads(run_summary(name, learner, got.trace, got.verified))
        row["m"] = bound
        return row, got.trace
    if learner == "bounded-min":
        bound = entry.k if entry.k is not None else min_index(d, oracle)
        if bound is None:
            return _failure_row(name, learner,
                                "no index inside the universe"), None
        got = bounded_min_learner(d, bound, lcfg)
        if isinstance(got, PromiseViolation):
            return _failure_row(name, learner, got.reason, k=bound), None
        row = json.loads(run_summary(name, learner, got.trace, got.verified))
        row["k"] = bound
        return row, got.trace
    raise ValueError(f"unknown learner {learner!r}")


def cmd_learn(args) -> int:
    t0 = time.monotonic()
    values = resolve_config(args)
    lcfg = learner_config(values)
    oracle = lcfg.oracle()
    try:
        entries = _load_corpus(args.corpus)
    except (OSError, ValueError) as err:
        print(f"error: {args.corpus}: {err}", file=sys.stderr)
        return 2
    if args.learner == "enum-total":
        _seed_total_class()
    os.makedirs(args.out_dir, exist_ok=True)
    rows = []
    outputs = []
    for idx, entry in enumerate(entries):
        try:
            row, trace = _learn_one(entry, args.learner, lcfg, oracle)
        except ValueError as err:
            # emitters refuse unrepresentable programs; record and move on
            row, trace = _failure_row(format_entry(entry), args.learner,
                                      str(err)), None
        rows.append(row)
        if trace is not None:
            csv_path = os.path.join(args.out_dir, f"trace_{idx:04d}.csv")
            _write_text(csv_path, trace_to_csv(trace))
            outputs.append(csv_path)
    done = [r for r in rows if "error" not in r]
    summary = {
        "learner": args.learner,
        "runs": rows,
        "count": len(rows),
        "convergence_rate": (sum(1 for r in done if r["converged"]) / len(rows)
                             if rows else 0.0),
        "verification_rate": (sum(1 for r in done if r["verified"]) / len(rows)
                              if rows else 0.0),
        "mean_mind_changes": (sum(r["mind_changes"] for r in done) / len(done)
                              if done else None),
    }
    summary_path = os.path.join(args.out_dir, "summary.json")
    _write_text(summary_path, json.dumps(summary, sort_keys=True) + "\n")
    outputs.append(summary_path)
    _emit_manifest(args.out_dir, RunManifest(
        "learn", values, args.seed, (args.corpus,), tuple(outputs),
        time.monotonic() - t0))
    ok = rows and all("error" not in r and r["converged"] and r["verified"]
                      for r in rows)
    return 0 if ok else 1


def cmd_kolmogorov(args) -> int:
    t0 = time.monotonic()
    values = resolve_config(args)
    oracle = problem_config(values).oracle
    try:
        entries = _load_corpus(args.corpus)
    except (OSError, ValueError) as err:
        print(f"error: {args.corpus}: {err}", file=sys.stderr)
        return 2
    os.makedirs(args.out_dir, exist_ok=True)
    lines = ["instance,min_index,verified"]
    for entry in entries:
        least = min_index(entry.descriptor, oracle)
        if least is None:
            lines.append(f"{format_entry(entry)},NOT_FOUND,False")
        else:
            ok = window_verify(least, entry.descriptor, oracle)
            lines.append(f"{format_entry(entry)},{least},{ok}")
    table_path = os.path.join(args.out_dir, "kolmogorov.csv")
    _write_text(table_path, "\n".join(lines) + "\n")
    print(table_path)
    _emit_manifest(args.out_dir, RunManifest(
        "kolmogorov", values, args.seed, (args.corpus,), (table_path,),
        time.monotonic() - t0))
    return 0


def cmd_reduce_check(args) -> int:
    t0 = time.monotonic()
    values = resolve_config(args)
    pcfg = problem_config(values)
    registry = reduction_registry(pcfg)
    if args.reduction not in registry:
        print(f"error: unknown reduction {args.reduction!r}; have "
              f"{', '.join(sorted(registry))}", file=sys.stderr)
        return 2
    case = registry[args.reduction]
    pair = case.pair
    if args.mutant:
        pair = mutate(pair, args.mutant)
    try:
        entries = _load_corpus(args.corpus)
        instances = [to_reduction_instance(e, args.reduction) for e in entries]
    except (OSError, ValueError) as err:
        print(f"error: {args.corpus}: {err}", file=sys.stderr)
        return 2
    report = check_reduction(case.f, case.g, pair, instances, pcfg)
    os.makedirs(args.out_dir, exist_ok=True)
    report_path = os.path.join(args.out_dir, "report.json")
    _write_text(report_path,
                report_to_json(report, os.path.basename(args.corpus)) + "\n")
    print(report_path)
    _emit_manifest(args.out_dir, RunManifest(
        "reduce-check", values, args.seed, (args.corpus,), (report_path,),
        time.monotonic() - t0))
    return 0 if report.passed else 1


def cmd_corpus_gen(args) -> int:
    t0 = time.monotonic()
    values = resolve_config(args)
    entries = CORPUS_KINDS[args.kind](args.size, args.seed, values["window"])
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, f"{args.kind}.corpus")
    write_corpus(path, entries)
    print(path)
    _emit_manifest(args.out_dir, RunManifest(
        "corpus-gen", values, args.seed, (), (path,), time.monotonic() - t0))
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _common(sub):
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out-dir", default="runs")
    sub.add_argument("--index-bound", type=int)
    sub.add_argument("--cap", type=int)
    sub.add_argument("--window", type=int)
    sub.add_argument("--stability-window", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="godellab",
        description="desk-scale lab for program numberings, limit learners "
                    "and reduction checking")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("enumerate", help="list programs with window behavior")
    p.add_argument("start", type=int)
    p.add_argument("stop", type=int)
    _common(p)
    p.set_defaults(run=cmd_enumerate)

    p = subs.add_parser("learn", help="run a learner over a corpus")
    p.add_argument("--learner", choices=LEARNERS, required=True)
    p.add_argument("--corpus", required=True)
    _common(p)
    p.set_defaults(run=cmd_learn)

    p = subs.add_parser("kolmogorov", help="least-index table for a corpus")
    p.add_argument("--corpus", required=True)
    _common(p)
    p.set_defaults(run=cmd_kolmogorov)

    p = subs.add_parser("reduce-check", help="check a catalog reduction")
    p.add_argument("--reduction", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--mutant", choices=MUTATION_MODES)
    _common(p)
    p.set_defaults(run=cmd_reduce_check)

    p = subs.add_parser("corpus-gen", help="generate a deterministic corpus")
    p.add_argument("kind", choices=sorted(CORPUS_KINDS))
    p.add_argument("--size", type=int, default=50)
    _common(p)
    p.set_defaults(run=cmd_corpus_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
