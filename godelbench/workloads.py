"""The three workloads: catalog, sweep and scan.

Each workload has four steps, all given the imported lab as `lab`:

  build(lab, seed, workdir)  the inputs; timed as part of set-up
  run_pass(lab, state)       one cold pass of the fixed work; timed
  collect(lab, state, raw)   the pass's outputs in comparable form
  check(lab, state, out)     a Verdict against the reference interpreter
                             or against properties the method must have

Every pass of a run does the same operations, so the failed share of
the attempted operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field

import reference

CEILING_REFUSAL = "not representable at desk scale"


@dataclass
class Verdict:
    attempted: int     # operations in one pass
    failures: Counter = field(default_factory=Counter)  # kind -> failed ops
    errors: list = field(default_factory=list)          # wrong outputs

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, kind: str) -> None:
        self.failures[kind] += 1

    def wrong(self, note: str) -> None:
        self.errors.append(note)


def _quiet(fn, *args):
    """Call `fn` with the lab's progress lines (report paths) swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


# ---------------------------------------------------------------------------
# catalog: every catalog reduction and its declared mutants via the CLI


# the corpus each reduction's domain supports, as the audit script assigns
CORPUS_FOR = {
    "cn_limn": "lit", "inf_cn": "lit", "liminf_minhat": "lit",
    "limn_cn": "conv",
    "kol_limn": "tot", "kolgeq_b": "tot",
    "b_kolgeq": "const", "limn_g": "const01",
    "lpo_kol": "lpo",
    "ghat_g": "fam", "gstar_g": "fam",
}

# families whose stride-tuple program has at most this many instructions.
# A family's cost grows about fourfold per instruction, so a seeded draw
# of families swings the pass time several-fold; the family corpus is
# therefore a fixed set, and the seed only orders it.
FAMILY_MAX_LENGTH = 9
FAMILY_COMBINATIONS = 36   # 4 bodies at width 1, 16 pairs x 2 components


def _constants(lab, n: int, seed: int, values) -> list:
    rng = random.Random(seed)
    out, seen = [], set()
    while len(out) < n:
        c = values[rng.randrange(len(values))]
        d = lab.spaces.Literal((c,) * rng.randrange(8), lab.spaces.Constant(c))
        if d not in seen:
            seen.add(d)
            out.append(lab.corpus.CorpusEntry(d))
    return out


class Catalog:
    name = "catalog"

    def build(self, lab, seed: int, workdir):
        C = lab.corpus
        lit = C.gen_literal_sequences(24, seed)
        families = [e for e in C.gen_families(FAMILY_COMBINATIONS, seed + 2)
                    if len(lab.numbering.decode(e.descriptor.index))
                    <= FAMILY_MAX_LENGTH]
        corpora = {
            "lit": lit,
            "conv": [e for e in lit
                     if isinstance(e.descriptor.tail, lab.spaces.Constant)],
            "tot": C.gen_total_programs(16, seed + 1),
            "fam": families,
            "lpo": C.gen_lpo_mixed(30, seed + 3),
            "const": _constants(lab, 12, seed + 4, (0, 1, 2)),
            "const01": _constants(lab, 10, seed + 5, (0, 1)),
        }
        (workdir / "corpora").mkdir(parents=True, exist_ok=True)
        paths = {}
        for key, entries in corpora.items():
            paths[key] = workdir / "corpora" / f"{key}.corpus"
            C.write_corpus(paths[key], entries)
        registry = lab.reductions.reduction_registry(
            lab.cli.problem_config(lab.cli.DEFAULTS))
        plan = []   # (reduction, mutant or None, argv, report path)
        for name in sorted(registry):
            for mode in (None,) + registry[name].mutant_modes:
                out_dir = workdir / "catalog" / name / (mode or "base")
                argv = ["reduce-check", "--reduction", name,
                        "--corpus", str(paths[CORPUS_FOR[name]]),
                        "--out-dir", str(out_dir)]
                if mode:
                    argv += ["--mutant", mode]
                plan.append((name, mode, argv, out_dir / "report.json"))
        return {"plan": plan}

    def run_pass(self, lab, state):
        main = lab.cli.main
        return [_quiet(main, argv) for _, _, argv, _ in state["plan"]]

    def collect(self, lab, state, raw):
        return [(name, mode, rc, json.loads(report.read_text()))
                for (name, mode, _, report), rc in zip(state["plan"], raw)]

    def check(self, lab, state, out):
        v = Verdict(attempted=len(out))
        for name, mode, rc, report in out:
            witnesses = sum(len(i["witnesses"]) for i in report["instances"])
            if mode is None and not (rc == 0 and report["pass"] is True):
                v.wrong(f"{name}: base run exits {rc}, pass={report['pass']}")
            if mode is not None and not (rc == 1 and witnesses >= 1):
                v.wrong(f"{name}[{mode}]: mutant not caught (exit {rc}, "
                        f"{witnesses} witnesses)")
        return v


# ---------------------------------------------------------------------------
# sweep: five learners, the least-index table and the Godel-family queries
# on one corpus of generated total programs

SWEEP_PER_FUNCTION = 4   # instances drawn for each total function
SWEEP_DRAWS = 200        # generator draws the stratified corpus is cut from
WINDOW, CAP, INDEX_BOUND = 8, 400, 120
G_CEILING = 80           # answer ceiling of the Godel-family queries


class Sweep:
    name = "sweep"

    def build(self, lab, seed: int, workdir):
        # the same number of instances per function, so that the share of
        # learner runs refused at the emission ceiling does not hang on
        # the seed; the seed picks each instance's budget
        picked, per_index = [], {}
        for e in lab.corpus.gen_total_programs(SWEEP_DRAWS, seed):
            d = e.descriptor
            if isinstance(d, lab.spaces.Generated) and \
                    per_index.get(d.index, 0) < SWEEP_PER_FUNCTION:
                per_index[d.index] = per_index.get(d.index, 0) + 1
                picked.append(e)
        if any(n < SWEEP_PER_FUNCTION for n in per_index.values()):
            raise RuntimeError("too few draws for a stratified sweep corpus")
        workdir.mkdir(parents=True, exist_ok=True)
        corpus = workdir / "sweep.corpus"
        lab.corpus.write_corpus(corpus, picked)
        flags = ["--index-bound", str(INDEX_BOUND), "--cap", str(CAP),
                 "--window", str(WINDOW)]
        learn = [(learner, ["learn", "--learner", learner, "--corpus", str(corpus),
                            "--out-dir", str(workdir / learner)] + flags)
                 for learner in lab.cli.LEARNERS]
        kolmogorov = ["kolmogorov", "--corpus", str(corpus),
                      "--out-dir", str(workdir / "kolmogorov")] + flags
        P = lab.problems
        pcfg = P.ProblemConfig(
            lab.oracles.OracleConfig(cap=CAP, window=WINDOW, index_bound=INDEX_BOUND),
            ceiling=G_CEILING)
        return {"entries": picked, "learn": learn, "kolmogorov": kolmogorov,
                "workdir": workdir, "pcfg": pcfg,
                "specs": P.problem_registry()}

    def run_pass(self, lab, state):
        main = lab.cli.main
        codes = [_quiet(main, argv) for _, argv in state["learn"]]
        codes.append(_quiet(main, state["kolmogorov"]))
        specs, pcfg = state["specs"], state["pcfg"]
        kol, g = specs["kol"], specs["g"]
        kol_geq, g_geq = specs["kol_geq"], specs["g_geq"]
        family = []
        for e in state["entries"]:
            d = e.descriptor
            kol_answers = kol.enumerate_answers(d, pcfg) \
                if kol.domain_check(d, pcfg) else None
            g_answers = g.enumerate_answers(d, pcfg)
            bounds = kol_geq.enumerate_answers(d, pcfg)
            geq = [(m, g_geq.domain_check((d, m), pcfg),
                    g_geq.enumerate_answers((d, m), pcfg)) for m in sorted(bounds)]
            family.append((kol_answers, g_answers, bounds, geq))
        return codes, family

    def collect(self, lab, state, raw):
        codes, family = raw
        workdir = state["workdir"]
        rows = {learner: json.loads((workdir / learner / "summary.json")
                                    .read_text())["runs"]
                for learner, _ in state["learn"]}
        with open(workdir / "kolmogorov" / "kolmogorov.csv") as fh:
            table = list(csv.DictReader(fh))
        return {"codes": codes, "rows": rows, "table": table, "family": family,
                "image": lab.numbering.default_loop_compiler.indices()}

    def check(self, lab, state, out):
        entries = state["entries"]
        v = Verdict(attempted=len(entries) * (len(out["rows"]) + 1 + 4))
        ref = reference.UniverseTable(INDEX_BOUND, WINDOW, CAP)
        image = set(out["image"])
        # `learn` exits 0 exactly when every row converged and verified
        for (learner, rows), code in zip(out["rows"].items(), out["codes"]):
            clean = all("error" not in r and r["converged"] and r["verified"]
                        for r in rows)
            if code != (0 if clean else 1):
                v.wrong(f"learn --learner {learner} exits {code}")
        if out["codes"][-1] != 0:
            v.wrong(f"kolmogorov exits {out['codes'][-1]}")
        for k, e in enumerate(entries):
            d = e.descriptor
            name = f"{d.index}/{d.budget}"
            targets = reference.values(d.index, WINDOW, d.budget)
            if None in targets:
                v.wrong(f"{name}: the reference finds the instance partial")
                continue
            least, verified = ref.least(targets), set(ref.verified(targets))
            for learner, rows in out["rows"].items():
                row = rows[k]
                if "error" in row or not (row["converged"] and row["verified"]):
                    # learners report refusals and broken promises as rows
                    reason = row.get("error", "not converged or not verified")
                    if learner in ("amalgamation", "bounded-min"):
                        v.fail(f"{learner}: " + ("emission-ceiling refusal"
                                                 if CEILING_REFUSAL in reason
                                                 else reason))
                    else:
                        v.wrong(f"{learner} {name}: {reason}")
                    continue
                guess = row["final_guess"]
                if learner in ("enum-full", "liminf") and guess != least:
                    v.wrong(f"{learner} {name}: final guess {guess}, least {least}")
                if learner == "enum-total" and not (
                        guess in image and ref.verifies(guess, targets)):
                    v.wrong(f"enum-total {name}: {guess} is not a verified "
                            f"image index")
                bound = row.get("m", row.get("k"))
                if learner in ("amalgamation", "bounded-min") and bound != least:
                    v.wrong(f"{learner} {name}: promise bound {bound}, least {least}")
            row = out["table"][k]
            if row["min_index"] != str(least) or row["verified"] != "True":
                v.wrong(f"kolmogorov {name}: row {row}, least {least}")
            kol_answers, g_answers, bounds, geq = out["family"][k]
            if kol_answers != {least}:
                v.wrong(f"Kol {name}: {kol_answers}, least {least}")
            if g_answers != verified:
                v.wrong(f"G {name}: {sorted(g_answers)}, reference {sorted(verified)}")
            if bounds != set(range(least, G_CEILING + 1)):
                v.wrong(f"Kol_geq {name}: {sorted(bounds)}")
            for m, in_domain, answers in geq:
                if not in_domain or answers != verified:
                    v.wrong(f"G_geq {name} m={m}: {in_domain} {sorted(answers)}")
        return v


# ---------------------------------------------------------------------------
# scan: a cold universe table through numbering.evaluate alone

SCAN_INDICES = 1001     # indices 0..1000
SCAN_POSITIONS = 17     # positions 0..16
SCAN_CAPS = (400, 10_000)   # the CLI's default cap, then a cap 25 times it
SCAN_SAMPLE = 1000      # high-cap cells checked against the reference


class Scan:
    name = "scan"

    def build(self, lab, seed: int, workdir):
        order = list(range(SCAN_INDICES))
        # the memo must not care in which order the table is filled
        random.Random(seed).shuffle(order)
        rng = random.Random(seed + 1)
        sample = [(rng.randrange(SCAN_INDICES), rng.randrange(SCAN_POSITIONS))
                  for _ in range(SCAN_SAMPLE)]
        return {"order": order, "sample": sample}

    def run_pass(self, lab, state):
        evaluate = lab.numbering.evaluate
        positions = range(SCAN_POSITIONS)
        order = state["order"]
        return [[evaluate(i, n, cap) for i in order for n in positions]
                for cap in SCAN_CAPS]

    def collect(self, lab, state, raw):
        Halted = lab.numbering.Halted
        tables = []
        for outcomes in raw:
            table = [None] * SCAN_INDICES
            for k, i in enumerate(state["order"]):
                cells = outcomes[k * SCAN_POSITIONS:(k + 1) * SCAN_POSITIONS]
                table[i] = tuple((o.value, o.steps) if type(o) is Halted else None
                                 for o in cells)
            tables.append(table)
        return tables

    def check(self, lab, state, out):
        low, high = out
        v = Verdict(attempted=len(SCAN_CAPS) * SCAN_INDICES * SCAN_POSITIONS)
        for i in range(SCAN_INDICES):
            for n in range(SCAN_POSITIONS):
                want = reference.run(i, n, SCAN_CAPS[0])
                if low[i][n] != want:
                    v.wrong(f"evaluate({i}, {n}, {SCAN_CAPS[0]}) = {low[i][n]}, "
                            f"reference {want}")
                if low[i][n] is not None and high[i][n] != low[i][n]:
                    v.wrong(f"evaluate({i}, {n}): {low[i][n]} at cap "
                            f"{SCAN_CAPS[0]} but {high[i][n]} at {SCAN_CAPS[1]}")
        for i, n in state["sample"]:
            want = reference.run(i, n, SCAN_CAPS[1])
            if high[i][n] != want:
                v.wrong(f"evaluate({i}, {n}, {SCAN_CAPS[1]}) = {high[i][n]}, "
                        f"reference {want}")
        return v


WORKLOADS = {w.name: w for w in (Catalog(), Sweep(), Scan())}
