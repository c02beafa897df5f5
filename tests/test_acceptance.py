"""End-to-end acceptance sweep at advertised scale.

One test per advertised guarantee.  Each computes everything first,
prints a single summary line with its elapsed time (visible under -s
and repeated in the assertion message), and only then asserts, so a
failing clause still reports the full picture.  These tests run the
library at full scale on purpose; the per-module suites stay fast.
"""

import random
import time

from godellab.corpus import gen_literal_sequences, gen_lpo_mixed, gen_total_programs
from godellab.learners import (
    Dovetailed,
    LearnerConfig,
    amalgamation_learn,
    bounded_min_learner,
    build_pockets,
    enum_learner,
    kol_liminf_enumerator,
)
from godellab.numbering import (
    Halted,
    decode,
    encode,
    evaluate,
    pair,
    parse_program,
    s_const,
    s_const_budget,
    unpair,
)
from godellab.oracles import OracleConfig, in_R, min_index
from godellab.problems import ProblemConfig, problem_registry
from godellab.reductions import check_reduction, mutate, reduction_registry
from godellab.spaces import (
    Constant,
    Generated,
    Literal,
    literal_is_zero,
    literal_limit,
    literal_sup,
)


def _report(name: str, ok: bool, detail: str, t0: float) -> str:
    line = "[acceptance] %s: %s (%s) %.1fs" % (
        name, "PASS" if ok else "FAIL", detail, time.time() - t0)
    print(line)
    return line


# ---------------------------------------------------------------------------
# 1. numbering laws


def test_criterion_1_numbering_laws():
    t0 = time.time()
    bad_pair = sum(1 for m in range(1_000_000) if pair(*unpair(m)) != m)
    bad_code = sum(1 for m in range(1_000_000) if encode(decode(m)) != m)

    # parameter hard-coding: the macro index agrees with the curried call
    smn_bad = 0
    grid = [(i, 0) for i in range(0, 2000, 50)] + \
           [(i, 1) for i in (0, 1, 2, 5, 6, 7, 9, 11, 55, 65)]
    triples = 0
    for i, c in grid:
        macro = s_const(i, c)
        for n in range(50):
            lhs = evaluate(macro, n, s_const_budget(c, n, 400))
            rhs = evaluate(i, pair(c, n), 400)
            triples += 1
            if isinstance(lhs, Halted) != isinstance(rhs, Halted):
                smn_bad += 1
            elif isinstance(lhs, Halted) and lhs.value != rhs.value:
                smn_bad += 1

    # universality: a wide probe running EVB agrees with the host evaluator
    evb_bad = 0
    probes = 0
    for i in list(range(100)) + [140192, 2 ** 20]:
        for n in range(5):
            for s in (6, 60):
                body = ["S 1"] * n + ["S 2"] * s + ["EVB 0 1 2 3", "T 3 0"]
                out = evaluate(parse_program("\n".join(body)), i, len(body) + 1)
                inner = evaluate(i, n, s)
                want = inner.value + 1 if isinstance(inner, Halted) else 0
                probes += 1
                if not isinstance(out, Halted) or out.value != want:
                    evb_bad += 1

    elapsed = time.time() - t0
    ok = (bad_pair == 0 and bad_code == 0 and smn_bad == 0 and evb_bad == 0
          and triples >= 2500 and probes >= 1000 and elapsed < 60)
    line = _report(
        "numbering laws", ok,
        "pair/unpair and encode/decode on 10^6 points, %d smn triples, "
        "%d utm probes, %d violations"
        % (triples, probes, bad_pair + bad_code + smn_bad + evb_bad), t0)
    assert ok, line


# ---------------------------------------------------------------------------
# 2. identification in the limit


def test_criterion_2_identification_in_the_limit():
    t0 = time.time()
    cfg = LearnerConfig(OracleConfig(cap=10_000, window=32, index_bound=2000),
                        stability_window=2, max_steps=9000)
    oracle = cfg.oracle
    entries = gen_total_programs(500, seed=11)
    misses = []
    for e in entries:
        trace = enum_learner(e.descriptor, range(oracle.index_bound + 1), cfg)
        want = min_index(e.descriptor, oracle)
        if not (trace.converged and want is not None
                and trace.guesses[-1] == want):
            misses.append((e.descriptor, trace.converged,
                           trace.guesses[-1] if trace.guesses else None, want))
    elapsed = time.time() - t0
    ok = len(entries) == 500 and not misses and elapsed < 300
    line = _report(
        "identification in the limit", ok,
        "%d/500 converged to the least index" % (500 - len(misses)), t0)
    assert ok, line


# ---------------------------------------------------------------------------
# 3. pocket amalgamation


def test_criterion_3_pocket_amalgamation():
    t0 = time.time()
    cfg = LearnerConfig(OracleConfig(cap=400, window=8, index_bound=120),
                        stability_window=2, max_steps=200)
    oracle = cfg.oracle
    instances = (
        [Generated(0, b) for b in range(3, 37)]
        + [Generated(1, b) for b in range(3, 37)]
        + [Generated(2, b) for b in range(3, 35)]
    )
    assert len(set(instances)) == 100

    construction_misses = []
    fractions = []
    for d in instances:
        m = min_index(d, oracle)
        survivors = build_pockets(m, cfg)
        antichain = all(
            not (p.members < q.members)
            for p in survivors for q in survivors
        )
        res = amalgamation_learn(d, m, cfg)
        # a Dovetailed result means exactly one pocket survived the scan
        good = antichain and isinstance(res, Dovetailed) and res.verified
        if not good:
            construction_misses.append((d, res))
        partial = sum(
            1 for j in range(m + 1)
            if any(not isinstance(evaluate(j, n, oracle.cap), Halted)
                   for n in range(oracle.window + 1))
        )
        fractions.append(partial / (m + 1))

    elapsed = time.time() - t0
    construction_ok = not construction_misses and elapsed < 300
    partial_ok = all(f >= 0.30 for f in fractions)
    line = _report(
        "pocket amalgamation", construction_ok and partial_ok,
        "antichain/unique-survivor/verify on %d/100 runs; "
        "partial fraction of the universes: max %.2f, required >= 0.30"
        % (100 - len(construction_misses), max(fractions)), t0)
    assert construction_ok, line
    # the promise m = least index keeps every universe 0..m inside the
    # total fragment here: no index below the least one can afford to
    # diverge on the window, so the partial-share clause has no model at
    # this scale and the assertion below records that honestly
    assert partial_ok, line


# ---------------------------------------------------------------------------
# 4. shrinking finite sets


def test_criterion_4_shrinking_sets():
    t0 = time.time()
    cfg = LearnerConfig(OracleConfig(cap=400, window=8, index_bound=120),
                        stability_window=2, max_steps=200)
    runs = (
        [(Generated(0, b), k) for k in range(0, 4) for b in (3, 4, 5)]
        + [(Generated(1, b), k) for k in (1, 2) for b in range(3, 13)]
        + [(Generated(2, b), k) for k in range(2, 7) for b in (3, 4, 5)]
        + [(Literal((0,) * j, Constant(0)), 1) for j in range(3)]
    )
    assert len(runs) == 50 and len(set(runs)) == 50

    misses = []
    for d, k in runs:
        res = bounded_min_learner(d, k, cfg)
        if not isinstance(res, Dovetailed):
            misses.append((d, k, res))
            continue
        codes = res.trace.guesses
        good = (codes[0] == 2 ** (k + 1) - 1
                and all(a >= b for a, b in zip(codes, codes[1:]))
                and res.verified)
        if not good:
            misses.append((d, k, codes))
    elapsed = time.time() - t0
    ok = not misses and elapsed < 120
    line = _report(
        "shrinking sets", ok,
        "%d/50 runs: full start code, non-increasing stream, verified final"
        % (50 - len(misses)), t0)
    assert ok, line


# ---------------------------------------------------------------------------
# 5. liminf enumeration


def test_criterion_5_liminf_enumeration():
    t0 = time.time()
    cfg = LearnerConfig(OracleConfig(cap=400, window=8, index_bound=120),
                        stability_window=2, max_steps=100)
    oracle = cfg.oracle
    entries = gen_total_programs(50, seed=21)
    misses = []
    for e in entries:
        stages = kol_liminf_enumerator(e.descriptor, cfg)
        want = min_index(e.descriptor, oracle)
        if not (stages[-1] and want is not None and min(stages[-1]) == want):
            misses.append((e.descriptor, stages[-1][:4], want))
    elapsed = time.time() - t0
    ok = len(entries) == 50 and not misses and elapsed < 120
    line = _report(
        "liminf enumeration", ok,
        "%d/50 final stages bottom out at the least index" % (50 - len(misses)),
        t0)
    assert ok, line


# ---------------------------------------------------------------------------
# 6. reduction catalog


def _constant_literals(n: int, seed: int, values) -> list:
    rng = random.Random(seed)
    out, seen = [], set()
    while len(out) < n:
        c = values[rng.randrange(len(values))]
        d = Literal((c,) * rng.randrange(8), Constant(c))
        if d not in seen:
            seen.add(d)
            out.append(d)
    return out


def test_criterion_6_reduction_catalog():
    t0 = time.time()
    cfg = ProblemConfig(OracleConfig(cap=400, window=8, index_bound=120),
                        ceiling=80)
    reg = reduction_registry(cfg)

    lit = [e.descriptor for e in gen_literal_sequences(40, 61)]
    convergent = [d for d in lit if isinstance(d.tail, Constant)]
    tot = [e.descriptor for e in gen_total_programs(25, 62)]
    lpo = [e.descriptor for e in gen_lpo_mixed(100, 66)]
    from godellab.corpus import gen_families, to_reduction_instance
    fam = gen_families(12, 63, window=8)
    consts = _constant_literals(24, 64, (0, 1, 2))
    low_consts = _constant_literals(16, 65, (0, 1))
    corpora = {
        "cn_limn": lit,
        "limn_cn": convergent,     # the limit operator needs convergent inputs
        "inf_cn": lit,
        "liminf_minhat": lit,
        "kol_limn": tot,
        "kolgeq_b": tot,
        "b_kolgeq": consts,
        "limn_g": low_consts,      # images of 2-valued constants leave the universe
        "lpo_kol": lpo,
        "ghat_g": [to_reduction_instance(e, "ghat_g") for e in fam],
        "gstar_g": [to_reduction_instance(e, "gstar_g") for e in fam],
    }

    base_misses, mutant_misses, clause_misses = [], [], []
    for name in sorted(reg):
        case = reg[name]
        rep = check_reduction(case.f, case.g, case.pair, corpora[name], cfg)
        if not (rep.passed and rep.records):
            base_misses.append((name, rep.witnesses[:2]))
        if len(case.mutant_modes) < 2:
            mutant_misses.append((name, "fewer than two mutant modes"))
        for mode in case.mutant_modes:
            mrep = check_reduction(case.f, case.g, mutate(case.pair, mode),
                                   corpora[name], cfg)
            if mrep.passed or not mrep.witnesses:
                mutant_misses.append((name, mode))

    # named clauses on three of the entries
    b_case = reg["b_kolgeq"]
    for x in consts:
        answers = sorted(b_case.g.enumerate_answers(b_case.pair.K(x), cfg))
        if not answers or min(answers) < literal_sup(x):
            clause_misses.append(("b_kolgeq", x))
    l_case = reg["limn_g"]
    for x in low_consts:
        y = l_case.pair.K(x)
        for i in sorted(l_case.g.enumerate_answers(y, cfg)):
            if l_case.pair.H(x, i) != literal_limit(x):
                clause_misses.append(("limn_g", x, i))
    k_case = reg["lpo_kol"]
    for x in lpo:
        want = 1 if literal_is_zero(x) else 0
        answers = k_case.g.enumerate_answers(k_case.pair.K(x), cfg)
        if not answers or any(k_case.pair.H(x, i) != want for i in answers):
            clause_misses.append(("lpo_kol", x))

    elapsed = time.time() - t0
    ok = (not base_misses and not mutant_misses and not clause_misses
          and elapsed < 600)
    line = _report(
        "reduction catalog", ok,
        "%d reductions pass, %d mutant runs all detected, clause misses %s"
        % (len(reg) - len(base_misses),
           sum(len(c.mutant_modes) for c in reg.values()) - len(mutant_misses),
           clause_misses[:3] or "none"), t0)
    assert ok, line


# ---------------------------------------------------------------------------
# 7. oracle monotonicity


def test_criterion_7_oracle_monotonicity():
    t0 = time.time()
    rng = random.Random(71)

    eval_bad = 0
    for _ in range(200):
        i, n = rng.randrange(2001), rng.randrange(9)
        b1 = rng.randrange(1, 400)
        b2 = b1 + rng.randrange(1, 400)
        lo, hi = evaluate(i, n, b1), evaluate(i, n, b2)
        if isinstance(lo, Halted):
            if not isinstance(hi, Halted) or hi.value != lo.value \
                    or hi.steps != lo.steps:
                eval_bad += 1

    inr_bad = 0
    for _ in range(200):
        k, n = rng.randrange(80), rng.randrange(1, 9)
        c1 = rng.randrange(1, 300)
        c2 = c1 + rng.randrange(1, 300)
        hi = in_R(k, n, OracleConfig(c2, 8, 120))
        if hi and not in_R(k, n, OracleConfig(c1, 8, 120)):
            inr_bad += 1

    pool = (
        [Literal((), Constant(c)) for c in range(4)]
        + [Literal((v,), Constant(c)) for v in range(3) for c in range(3)]
        + [Generated(i, 60) for i in (0, 1, 2, 6, 9, 55, 65)]
    )
    min_bad = 0
    for _ in range(200):
        d = pool[rng.randrange(len(pool))]
        c1 = rng.randrange(2, 200)
        c2 = c1 + rng.randrange(1, 200)
        m1 = min_index(d, OracleConfig(c1, 8, 120))
        m2 = min_index(d, OracleConfig(c2, 8, 120))
        if m1 is not None and (m2 is None or m2 > m1):
            min_bad += 1

    elapsed = time.time() - t0
    ok = eval_bad == 0 and inr_bad == 0 and min_bad == 0 and elapsed < 60
    line = _report(
        "oracle monotonicity", ok,
        "200 samples each: eval budget, in_R cap, min_index cap; "
        "%d violations" % (eval_bad + inr_bad + min_bad), t0)
    assert ok, line


# ---------------------------------------------------------------------------
# 8. consistency of the Godel family


def test_criterion_8_godel_family_consistency():
    t0 = time.time()
    cfg = ProblemConfig(OracleConfig(cap=400, window=8, index_bound=120),
                        ceiling=80)
    reg = problem_registry()
    g, kol = reg["g"], reg["kol"]
    g_geq, kol_geq = reg["g_geq"], reg["kol_geq"]

    misses = []
    corpus = [e.descriptor for e in gen_total_programs(30, seed=81)]
    for d in corpus:
        if not g.domain_check(d, cfg):
            misses.append((d, "outside dom(G)"))
            continue
        answers = g.enumerate_answers(d, cfg)
        if not answers or kol.enumerate_answers(d, cfg) != {min(answers)}:
            misses.append((d, "Kol is not the least G answer"))
        bounds = sorted(kol_geq.enumerate_answers(d, cfg))
        if not bounds:
            misses.append((d, "no Kol_geq answer under the ceiling"))
        for m in bounds:
            inst = (d, m)
            if not g_geq.domain_check(inst, cfg):
                misses.append((inst, "outside dom(G_geq)"))
                continue
            got = g_geq.enumerate_answers(inst, cfg)
            if not got or not all(g.verify(d, a, cfg) for a in got):
                misses.append((inst, "G_geq answer fails G verification"))

    elapsed = time.time() - t0
    ok = len(corpus) == 30 and not misses and elapsed < 120
    line = _report(
        "godel family consistency", ok,
        "30 instances: Kol = min G, and Kol_geq then G_geq verifies; "
        "misses %s" % (misses[:2] or "none"), t0)
    assert ok, line
