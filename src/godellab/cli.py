"""Batch front end: corpus generation, learner runs, least-index
tables, reduction checks, trace export.

Config files are line-oriented key=value over the keys index_bound,
cap, window, stability_window, max_steps, ceiling.  Flags override the
file, built-in defaults fill the rest; each command takes only the
flags it reads, and `--seed` belongs to corpus-gen alone.  Result files
never embed timing, so identical (command, config, seed, inputs)
reproduce them byte for byte; wall-clock goes to the manifest only.
Every file goes through `corpus.write_text`, so a re-run into the same
--out-dir leaves a result file that already holds its bytes untouched
(its mtime does not move), while `manifest.json`, whose `elapsed_s`
differs, is rewritten on every run.

`main` is the one command path: it resolves the config, runs the
command, turns a `ValueError` into exit 2 and writes `manifest.json`
beside the files the command wrote.  Exit codes: 0 all checks pass,
1 semantic failure with witnesses recorded, 2 usage or parse error.

Learner promises: amalgamation needs a universe bound m and the
shrinking-set learner a bound k.  Corpus lines may carry them as m= and
k= annotations; for lines without one the driver fills in the least
index itself, which satisfies the promise by definition and is echoed
in the summary row.  An annotation above index_bound is a failure row.

A learner reads an entry only through its window values (up to the
first partial position) and its m= and k=, so `learn` runs it once per
distinct (window values, m, k), keeping the results in a dict of that
command alone.  Rows and trace files are still one per entry, each row
under its own instance, as if the entry had been learned alone.

The enum-total learner's class is a small standard library of loop
programs (identity, constants 0..2, add one to three, doubling): `learn`
compiles it and passes its indices in, so loops compiled earlier in the
process never join the class.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .corpus import (
    CORPUS_KINDS,
    DEFAULT_SIZE,
    format_entry,
    read_corpus,
    to_reduction_instance,
    write_corpus,
    write_text,
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
    Copy,
    Inc,
    Loop,
    ZeroR,
    compile_loop,
    decode,
    evaluate,
    format_program,
)
from .oracles import (
    OracleConfig,
    min_index,
    total_on_window,
    universe,
    window_verify,
)
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
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ValueError(f"{path}: {err}") from None
    values: dict[str, int] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not (sep and key in DEFAULTS and val.isascii() and val.isdigit()):
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


def _oracle_config(values: dict[str, int]) -> OracleConfig:
    return OracleConfig(cap=values["cap"], window=values["window"],
                        index_bound=values["index_bound"])


def learner_config(values: dict[str, int]) -> LearnerConfig:
    return LearnerConfig(_oracle_config(values), values["stability_window"],
                         values["max_steps"])


def problem_config(values: dict[str, int]) -> ProblemConfig:
    return ProblemConfig(_oracle_config(values), values["ceiling"])


def _load_corpus(path: str, reduction: str | None = None) -> list:
    """The corpus entries, shaped for `reduction`'s outer problem when one
    is named; any read, parse or shape error names the path."""
    try:
        with open(path) as fh:
            entries = read_corpus(fh)
        if reduction is None:
            return entries
        return [to_reduction_instance(e, reduction) for e in entries]
    except (OSError, ValueError) as err:
        raise ValueError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# commands: each takes the parsed flags and the resolved config and
# returns its exit code and the files it wrote


def _at_least(*bounds: tuple[str, int, int]) -> None:
    for name, value, least in bounds:
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")


def cmd_enumerate(args, values) -> tuple[int, list[str]]:
    _at_least(("start", args.start, 0), ("window", values["window"], 0),
              ("cap", values["cap"], 1))
    for index in range(args.start, args.stop + 1):
        # the program runs as its index does, keyed by its codes alone
        program = decode(index)
        text = format_program(program).replace("\n", "; ") or "(empty)"
        cells = []
        for n in range(values["window"] + 1):
            out = evaluate(program, n, values["cap"])
            cells.append("?" if out is None else str(out.value))
        print(f"{index}\t{text}\t{','.join(cells)}")
    return 0, []


# enum-total's class: the indices of these loops, compiled and passed in
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


def _failure_row(learner: str, reason: str, **extra) -> dict:
    row = {"learner": learner, "converged": False, "verified": False,
           "error": reason}
    row.update(extra)
    return row


def _learn_one(d, m: int | None, k: int | None, learner: str,
               lcfg: LearnerConfig, candidates):
    """One learner run on d under the entry's bounds m and k: (summary
    row, trace or None), the row's instance left to the caller;
    candidates is the enumeration learners' class.  d is read only
    through its window values, so equal values give equal runs."""
    oracle = lcfg.oracle
    if learner in ("enum-full", "enum-total"):
        trace = enum_learner(d, candidates, lcfg)
        verified = trace.converged and window_verify(
            trace.guesses[-1], d, oracle)
        return run_summary(None, learner, trace, verified), trace
    if learner == "liminf":
        stages = kol_liminf_enumerator(d, lcfg)
        mins = [min(stage) for stage in stages if stage]
        trace = run_to_limit(mins, lcfg.stability_window, max(len(mins), 1))
        verified = bool(mins) and mins[-1] == min_index(d, oracle)
        return run_summary(None, learner, trace, verified), trace
    # the promise learners: the bound is the entry's annotation or else
    # the least index; the table is built per call so that it reads the
    # module's current bindings, which godelbench's tracer rebinds
    key, bound, learn = {"amalgamation": ("m", m, amalgamation_learn),
                         "bounded-min": ("k", k, bounded_min_learner)}[learner]
    if bound is None:
        bound = min_index(d, oracle)
    elif bound > oracle.index_bound:
        # the learners hold every index of 0..bound at once
        raise ValueError(f"{key}={bound} is above index_bound "
                         f"{oracle.index_bound}")
    if bound is None:
        return _failure_row(learner, "no index inside the universe"), None
    got = learn(d, bound, lcfg)
    if isinstance(got, PromiseViolation):
        return _failure_row(learner, got.reason, **{key: bound}), None
    row = run_summary(None, learner, got.trace, got.verified)
    row[key] = bound
    return row, got.trace


def cmd_learn(args, values) -> tuple[int, list[str]]:
    lcfg = learner_config(values)
    entries = _load_corpus(args.corpus)
    candidates = (sorted(compile_loop(stmts) for stmts in _STANDARD_LOOPS)
                  if args.learner == "enum-total"
                  else range(lcfg.oracle.index_bound + 1))
    os.makedirs(args.out_dir, exist_ok=True)
    rows = []
    outputs = []
    # (window values, m, k) -> (row, trace or None): each distinct key
    # is learned once, for this command only, and each entry's row is a
    # copy that takes the entry's own instance
    learned = {}
    for idx, entry in enumerate(entries):
        key = None
        try:
            key = (universe(lcfg.oracle).prefix(entry.descriptor),
                   entry.m, entry.k)
            got = learned.get(key)
            if got is None:
                got = _learn_one(entry.descriptor, entry.m, entry.k,
                                 args.learner, lcfg, candidates)
        except ValueError as err:
            # emitters refuse unrepresentable programs, and the promise
            # learners a bound past the universe; record and move on
            got = _failure_row(args.learner, str(err)), None
        if key is not None:
            learned[key] = got
        row, trace = got
        rows.append({**row, "instance": format_entry(entry)})
        if trace is not None:
            csv_path = os.path.join(args.out_dir, f"trace_{idx:04d}.csv")
            write_text(csv_path, trace_to_csv(trace))
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
    write_text(summary_path, json.dumps(summary, sort_keys=True) + "\n")
    outputs.append(summary_path)
    ok = rows and all("error" not in r and r["converged"] and r["verified"]
                      for r in rows)
    return (0 if ok else 1), outputs


def cmd_kolmogorov(args, values) -> tuple[int, list[str]]:
    oracle = problem_config(values).oracle
    entries = _load_corpus(args.corpus)
    os.makedirs(args.out_dir, exist_ok=True)
    lines = ["instance,min_index,verified"]
    partial = False
    for entry in entries:
        if not total_on_window(entry.descriptor, oracle):
            # the entry's own budget runs out, whatever the cap
            partial = True
            lines.append(f"{format_entry(entry)},PARTIAL,False")
            continue
        least = min_index(entry.descriptor, oracle)
        if least is None:
            lines.append(f"{format_entry(entry)},NOT_FOUND,False")
        else:
            ok = window_verify(least, entry.descriptor, oracle)
            lines.append(f"{format_entry(entry)},{least},{ok}")
    table_path = os.path.join(args.out_dir, "kolmogorov.csv")
    write_text(table_path, "\n".join(lines) + "\n")
    print(table_path)
    return (1 if partial else 0), [table_path]


def cmd_reduce_check(args, values) -> tuple[int, list[str]]:
    pcfg = problem_config(values)
    registry = reduction_registry(pcfg)
    if args.reduction not in registry:
        raise ValueError(f"unknown reduction {args.reduction!r}; have "
                         f"{', '.join(sorted(registry))}")
    case = registry[args.reduction]
    pair = mutate(case.pair, args.mutant) if args.mutant else case.pair
    instances = _load_corpus(args.corpus, args.reduction)
    report = check_reduction(case.f, case.g, pair, instances, pcfg)
    os.makedirs(args.out_dir, exist_ok=True)
    report_path = os.path.join(args.out_dir, "report.json")
    write_text(report_path,
               report_to_json(report, os.path.basename(args.corpus)) + "\n")
    print(report_path)
    return (0 if report.passed else 1), [report_path]


def cmd_corpus_gen(args, values) -> tuple[int, list[str]]:
    _at_least(("window", values["window"], 0))
    entries = CORPUS_KINDS[args.kind](args.size, args.seed, values["window"])
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, f"{args.kind}.corpus")
    write_corpus(path, entries)
    print(path)
    return 0, [path]


# ---------------------------------------------------------------------------
# argument wiring


_FLAGS = {"config": {"help": "key=value config file"},
          "seed": {"type": int, "default": 0}, "out-dir": {"default": "runs"},
          "index-bound": {"type": int}, "cap": {"type": int},
          "window": {"type": int}, "stability-window": {"type": int}}

# the flags of the commands that scan the bounded universe
_SCAN_FLAGS = ("config", "out-dir", "index-bound", "cap", "window")


def _flags(sub, names) -> None:
    for name in names:
        sub.add_argument(f"--{name}", **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="godellab",
        description="desk-scale lab for program numberings, limit learners "
                    "and reduction checking")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("enumerate", help="list programs with window behavior")
    p.add_argument("start", type=int)
    p.add_argument("stop", type=int)
    _flags(p, ("config", "cap", "window"))
    p.set_defaults(run=cmd_enumerate)

    p = subs.add_parser("learn", help="run a learner over a corpus")
    p.add_argument("--learner", choices=LEARNERS, required=True)
    p.add_argument("--corpus", required=True)
    _flags(p, _SCAN_FLAGS + ("stability-window",))
    p.set_defaults(run=cmd_learn)

    p = subs.add_parser("kolmogorov", help="least-index table for a corpus")
    p.add_argument("--corpus", required=True)
    _flags(p, _SCAN_FLAGS)
    p.set_defaults(run=cmd_kolmogorov)

    p = subs.add_parser("reduce-check", help="check a catalog reduction")
    p.add_argument("--reduction", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--mutant", choices=MUTATION_MODES)
    _flags(p, _SCAN_FLAGS)
    p.set_defaults(run=cmd_reduce_check)

    p = subs.add_parser("corpus-gen", help="generate a deterministic corpus")
    p.add_argument("kind", choices=sorted(CORPUS_KINDS))
    p.add_argument("--size", type=int,
                   help=f"default {DEFAULT_SIZE}, or every entry of a smaller kind")
    _flags(p, ("config", "seed", "out-dir", "window"))
    p.set_defaults(run=cmd_corpus_gen)

    return parser


# built by the first `main` call and reused by the later ones
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        values = resolve_config(args)
        code, outputs = args.run(args, values)
        if outputs:
            manifest = {"command": args.command, "config": values,
                        "seed": getattr(args, "seed", None),
                        "inputs": [args.corpus] if "corpus" in args else [],
                        "outputs": outputs, "elapsed_s": time.monotonic() - t0}
            write_text(os.path.join(args.out_dir, "manifest.json"),
                       json.dumps(manifest, sort_keys=True) + "\n")
    except (OSError, ValueError) as err:
        # a usage error, or an output that cannot be written
        print(f"error: {err}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
