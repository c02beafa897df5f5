"""Sweep every learner over one generated corpus and digest the summaries.

Thin driver over the command line entry point; each learner keeps its
own run directory with manifest, traces, and summary.json.  Exits with
the worst learner exit code, so a sweep with honest per-instance
failures (promise bounds whose pockets are not emittable at desk scale)
reports 1 while still printing every digest row.
"""

import argparse
import json
import pathlib
import sys

from godellab.cli import LEARNERS, main


def run_sweep(kind: str, size: int, seed: int, out_dir: pathlib.Path) -> int:
    rc = main(["corpus-gen", kind, "--size", str(size), "--seed", str(seed),
               "--out-dir", str(out_dir)])
    if rc != 0:
        print("corpus generation failed", file=sys.stderr)
        return rc
    corpus = out_dir / f"{kind}.corpus"
    worst = 0
    for learner in LEARNERS:
        rdir = out_dir / learner.replace("-", "_")
        rc = main(["learn", "--learner", learner, "--corpus", str(corpus),
                   "--out-dir", str(rdir)])
        # exit 1 still writes the summary (its failure rows); 2 writes none
        if rc == 2:
            return rc
        worst = max(worst, rc)
        summary = json.loads((rdir / "summary.json").read_text())
        # the mean is null when every row of the learner is a failure row
        mean = summary["mean_mind_changes"]
        print("%-14s exit=%d  n=%-3d conv=%.2f verif=%.2f mind_changes=%s"
              % (learner, rc, summary["count"], summary["convergence_rate"],
                 summary["verification_rate"],
                 "-" if mean is None else "%.2f" % mean))
    return worst


def cli() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", default="total-programs")
    ap.add_argument("--size", type=int, default=40)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out-dir", default="runs/sweep")
    args = ap.parse_args()
    return run_sweep(args.kind, args.size, args.seed, pathlib.Path(args.out_dir))


if __name__ == "__main__":
    raise SystemExit(cli())
