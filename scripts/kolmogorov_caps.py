"""Tabulate capped least indices of one corpus under two step caps.

The capped least-index map can only drop as the cap grows (more
computations finish, so more candidates verify).  This driver runs the
kolmogorov subcommand twice and prints the merged table; any row where
the high-cap index exceeds the low-cap one would be a bug.
"""

import argparse
import csv
import pathlib
import sys

from godellab.cli import main


def _rows(path: pathlib.Path):
    with path.open() as fh:
        return {r["instance"]: r["min_index"] for r in csv.DictReader(fh)}


def compare(kind: str, size: int, seed: int, caps, out_dir: pathlib.Path) -> int:
    rc = main(["corpus-gen", kind, "--size", str(size), "--seed", str(seed),
               "--out-dir", str(out_dir)])
    if rc != 0:
        return rc
    corpus = out_dir / f"{kind}.corpus"
    tables = []
    for cap in caps:
        rdir = out_dir / f"cap{cap}"
        rc = main(["kolmogorov", "--corpus", str(corpus), "--cap", str(cap),
                   "--out-dir", str(rdir)])
        # exit 1 still writes the table (its PARTIAL rows); 2 writes none
        if rc == 2:
            return rc
        tables.append(_rows(rdir / "kolmogorov.csv"))
    low, high = tables
    violations = 0
    print("%-40s %10s %10s" % ("instance", f"cap={caps[0]}", f"cap={caps[1]}"))
    for inst in low:
        a, b = low[inst], high[inst]
        print("%-40s %10s %10s" % (inst[:40], a, b))
        # a PARTIAL entry reads its own budget, so it is PARTIAL at both caps
        if a not in ("NOT_FOUND", "PARTIAL") and (
                b == "NOT_FOUND" or int(b) > int(a)):
            violations += 1
    if violations:
        print(f"{violations} anti-monotonicity violations", file=sys.stderr)
        return 1
    return 0


def cli() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", default="total-programs")
    ap.add_argument("--size", type=int, default=25)
    ap.add_argument("--seed", type=int, default=13)
    ap.add_argument("--caps", type=int, nargs=2, default=(2, 400))
    ap.add_argument("--out-dir", default="runs/kolcaps")
    args = ap.parse_args()
    return compare(args.kind, args.size, args.seed, args.caps,
                   pathlib.Path(args.out_dir))


if __name__ == "__main__":
    raise SystemExit(cli())
