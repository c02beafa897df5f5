"""Audit the whole reduction catalog: base runs plus every mutant.

Each reduction gets the corpus its domain supports (the limit operator
needs convergent inputs; the interleaved-marker constructions only stay
inside the bounded universe on low-valued constants).  Bases must pass
and every mutant must be detected; the script exits 1 otherwise.
"""

import argparse
import pathlib
import random

from godellab.cli import DEFAULTS, main, problem_config
from godellab.corpus import (
    CorpusEntry,
    gen_families,
    gen_literal_sequences,
    gen_lpo_mixed,
    gen_total_programs,
    write_corpus,
)
from godellab.reductions import reduction_registry
from godellab.spaces import Constant, Literal


def _constants(n, seed, values):
    rng = random.Random(seed)
    out, seen = [], set()
    while len(out) < n:
        c = values[rng.randrange(len(values))]
        d = Literal((c,) * rng.randrange(8), Constant(c))
        if d not in seen:
            seen.add(d)
            out.append(CorpusEntry(d))
    return out


def _write(path: pathlib.Path, entries) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    write_corpus(path, entries)
    return str(path)


def audit(out_dir: pathlib.Path, seed: int) -> int:
    lit = gen_literal_sequences(24, seed)
    corpora = {
        "lit": _write(out_dir / "lit.corpus", lit),
        "conv": _write(out_dir / "conv.corpus",
                       [e for e in lit if isinstance(e.descriptor.tail, Constant)]),
        "tot": _write(out_dir / "tot.corpus", gen_total_programs(16, seed + 1)),
        "fam": _write(out_dir / "fam.corpus", gen_families(8, seed + 2)),
        "lpo": _write(out_dir / "lpo.corpus", gen_lpo_mixed(30, seed + 3)),
        "const": _write(out_dir / "const.corpus",
                        _constants(12, seed + 4, (0, 1, 2))),
        "const01": _write(out_dir / "const01.corpus",
                          _constants(10, seed + 5, (0, 1))),
    }
    corpus_for = {
        "cn_limn": "lit", "inf_cn": "lit", "liminf_minhat": "lit",
        "limn_cn": "conv",
        "kol_limn": "tot", "kolgeq_b": "tot",
        "b_kolgeq": "const", "limn_g": "const01",
        "lpo_kol": "lpo",
        "ghat_g": "fam", "gstar_g": "fam",
    }

    registry = reduction_registry(problem_config(DEFAULTS))
    bad = 0
    for name in sorted(registry):
        corpus = corpora[corpus_for[name]]
        rc = main(["reduce-check", "--reduction", name, "--corpus", corpus,
                   "--out-dir", str(out_dir / name)])
        detected = []
        for mode in registry[name].mutant_modes:
            mrc = main(["reduce-check", "--reduction", name, "--corpus", corpus,
                        "--mutant", mode,
                        "--out-dir", str(out_dir / name / mode)])
            detected.append((mode, mrc == 1))
        ok = rc == 0 and all(d for _, d in detected)
        bad += 0 if ok else 1
        print("%-14s base %s; mutants %s"
              % (name, "pass" if rc == 0 else "FAIL",
                 " ".join("%s=%s" % (m, "caught" if d else "MISSED")
                          for m, d in detected)))
    return 1 if bad else 0


def cli() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=19)
    ap.add_argument("--out-dir", default="runs/audit")
    args = ap.parse_args()
    return audit(pathlib.Path(args.out_dir), args.seed)


if __name__ == "__main__":
    raise SystemExit(cli())
