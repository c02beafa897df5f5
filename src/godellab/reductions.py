"""Reduction harness and the catalog of explicit reduction witnesses.

A reduction from f to g is a pair of transformers: K turns an
f-instance into a g-instance, H turns the original instance plus any
valid g-answer into an f-answer.  The checker is adversarial about
multivaluedness: it enumerates EVERY valid g-answer within the bounded
answer universe and demands that H turn each one into a verified
f-answer.  Passing one hand-picked realizer is not enough.

Desk-scale deviations from the ideal constructions, where the bounded
universe forces a choice:

  * limn_cn's K must know the answer ceiling to exclude every non-limit
    value, so its maker takes the config (the ideal K enumerates an
    infinite complement).
  * lpo_kol's normalization collapses a sequence with first nonzero at
    position n to the constant-1 sequence rather than 0^n 1^w: the
    stepped forms have no index inside any affordable universe, and the
    comparison against the least zero-program index is unaffected.
  * ghat_g / gstar_g tuple components at fixed stride rather than by
    Cantor pairing: extraction then composes through precompose_affine
    and stays under the emission ceiling, which a pair-code walker cannot.
  * b_kolgeq / limn_g search the capped R; the final inequalities are
    re-checked against min_index rather than trusted, so an undersized
    cap surfaces as a recorded failure.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .learners import LearnerConfig, enum_learner
from .numbering import Nat, Program, affine_budget, evaluate, precompose_affine
from .oracles import min_index, search_R, total_on_window, verified_indices, window_verify
from .problems import ProblemConfig, ProblemSpec, problem_registry
from .spaces import (
    Constant,
    Generated,
    Literal,
    cluster_values,
    descriptor_get,
    least_absent,
    literal_is_zero,
    literal_least_absent,
    literal_limit,
    literal_value,
    tail_word,
)

# ---------------------------------------------------------------------------
# harness


class ReductionAbort(Exception):
    """A transformer could not complete within its resource bounds."""


@dataclass(frozen=True)
class ReductionPair:
    name: str
    K: Callable[[object], object]
    H: Callable[[object, Nat], Nat]


@dataclass(frozen=True)
class FailureWitness:
    instance_id: int
    kind: str  # f_domain | g_domain | construction | verification
    inner: Optional[Nat] = None
    outer: Optional[Nat | Program] = None
    note: str = ""


@dataclass(frozen=True)
class InstanceRecord:
    instance_id: int
    tried: tuple
    verified: bool


@dataclass(frozen=True)
class ReductionReport:
    reduction: str
    records: tuple
    witnesses: tuple
    passed: bool


def check_reduction(f: ProblemSpec, g: ProblemSpec, r: ReductionPair,
                    corpus: Sequence, cfg: ProblemConfig) -> ReductionReport:
    """Adversarial check of r: f <= g over the corpus.

    Passes iff on every instance the image lands in g's domain and every
    enumerated g-answer transports to a verified f-answer.  Domain
    violations, construction aborts, and verification failures all leave
    witnesses in the report.  Every answer is tried and each failing one
    recorded, but an f-answer that H returns again within an instance is
    verified once: the verdict depends only on the instance and it.
    """
    records = []
    witnesses = []
    for xid, x in enumerate(corpus):
        if not f.domain_check(x, cfg):
            witnesses.append(FailureWitness(xid, "f_domain"))
            records.append(InstanceRecord(xid, (), False))
            continue
        try:
            y = r.K(x)
        except ReductionAbort as stop:
            witnesses.append(FailureWitness(xid, "construction", note=str(stop)))
            records.append(InstanceRecord(xid, (), False))
            continue
        if not g.domain_check(y, cfg):
            witnesses.append(FailureWitness(xid, "g_domain"))
            records.append(InstanceRecord(xid, (), False))
            continue
        tried = []
        good = True
        verdicts: dict = {}
        for a in sorted(g.enumerate_answers(y, cfg)):
            tried.append(a)
            try:
                b = r.H(x, a)
            except ReductionAbort as stop:
                witnesses.append(
                    FailureWitness(xid, "construction", inner=a, note=str(stop)))
                good = False
                continue
            if b not in verdicts:
                verdicts[b] = f.verify(x, b, cfg)
            if not verdicts[b]:
                witnesses.append(FailureWitness(xid, "verification", a, b))
                good = False
        records.append(InstanceRecord(xid, tuple(tried), good))
    passed = bool(records) and all(rec.verified for rec in records)
    return ReductionReport(r.name, tuple(records), tuple(witnesses), passed)


def _json_nat(v: Optional[Nat | Program]):
    # composed program indices run to thousands of digits; past the
    # int-to-str conversion guard only the magnitude is reportable.  A
    # composed answer (`precompose_affine`'s program) is encoded here, in a
    # witness, and a passing check encodes none
    if v is None:
        return v
    v = operator.index(v)
    return v if v.bit_length() <= 64 else f"#bits={v.bit_length()}"


def report_to_json(report: ReductionReport, corpus_name: str) -> str:
    by_instance: dict[int, list] = {}
    for w in report.witnesses:
        by_instance.setdefault(w.instance_id, []).append(
            {"kind": w.kind, "inner": _json_nat(w.inner),
             "outer": _json_nat(w.outer), "note": w.note})
    payload = {
        "reduction": report.reduction,
        "corpus": corpus_name,
        "instances": [
            {"id": rec.instance_id, "pass": rec.verified,
             "witnesses": by_instance.get(rec.instance_id, [])}
            for rec in report.records
        ],
        "pass": report.passed,
    }
    return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# first-order catalog entries


def _span(x: Literal) -> int:
    return len(x.prefix) + len(tail_word(x.tail))


def catalog_cn_limn() -> ReductionPair:
    """Closed choice to limits: guess the least value not yet enumerated."""

    def K(x):
        guesses = []
        seen: set = set()
        for n in range(_span(x)):
            seen.add(literal_value(x, n))
            guesses.append(least_absent(seen))
        return Literal(tuple(guesses), Constant(literal_least_absent(x)))

    return ReductionPair("cn_limn", K, lambda x, a: a)


def catalog_limn_cn(cfg: ProblemConfig) -> ReductionPair:
    """Limits to closed choice: forbid everything except the limit.

    Needs the answer ceiling to exclude every non-limit value, hence the
    config argument.
    """

    def K(x):
        lim = literal_limit(x)
        vals = tuple(m for m in range(cfg.ceiling + 1) if m != lim)
        return Literal(vals, Constant(vals[0]))

    return ReductionPair("limn_cn", K, lambda x, a: a)


def catalog_inf_cn() -> ReductionPair:
    """Least absent value from any absent value: scan below the answer."""

    def H(x, a):
        return min(literal_least_absent(x), a)

    return ReductionPair("inf_cn", lambda x: x, H)


def catalog_liminf_minhat() -> ReductionPair:
    """liminf via the multiplicity filtration: stage n keeps the values
    occurring at least n+1 times, and the stage minima converge to the
    least cluster point."""

    def K(x):
        always = cluster_values(x)
        counts: dict = {}
        for v in x.prefix:
            counts[v] = counts.get(v, 0) + 1
        deepest = max(counts.values(), default=0)
        mins = []
        for n in range(1, deepest + 2):
            stage = always | {v for v, c in counts.items() if c >= n}
            mins.append(min(stage))
        return Literal(tuple(mins), Constant(min(always)))

    return ReductionPair("liminf_minhat", K, lambda x, a: a)


# ---------------------------------------------------------------------------
# the least-index family entries


def catalog_b_kolgeq(cfg: ProblemConfig) -> ReductionPair:
    """Bounds from index bounds: p(k) picks an R-member at or above q(k),
    so any true index of p, hence any Kol_>= answer, bounds q."""

    oracle = cfg.oracle

    def K(x):
        vals = [literal_value(x, n) for n in range(_span(x))]
        if any(a > b for a, b in zip(vals, vals[1:])):
            raise ReductionAbort("instance is not monotone")
        picks: list = []
        for k, v in enumerate(vals):
            if k and v == vals[k - 1]:
                picks.append(picks[-1])
                continue
            hit = search_R(k, v, oracle, oracle.index_bound)
            if hit is None:
                raise ReductionAbort(f"no R-member found at or above {v}")
            picks.append(hit)
        return Literal(tuple(picks), Constant(picks[-1]))

    return ReductionPair("b_kolgeq", K, lambda x, a: a)


def catalog_limn_g(cfg: ProblemConfig) -> ReductionPair:
    """Limits from Godel numbers: interleave R-markers with the guesses;
    any verified index lands past the markers, where the constructed
    sequence already sits at the limit, so reading it off at the index
    position recovers the limit.

    K keeps its image of each instance for as long as the pair lives, and
    H reads K(x) from that memo instead of rebuilding it for every answer.
    A mutant that `mutate` gives another K still reads this one in H."""

    oracle = cfg.oracle

    @functools.cache
    def K(x):
        lim = literal_limit(x)
        cells = []
        for k in range(len(x.prefix) + 1):
            v = literal_value(x, k)
            marker = search_R(2 * k, v, oracle, oracle.index_bound)
            if marker is None:
                raise ReductionAbort(f"no R-member found at or above {v}")
            cells.append(marker)
            cells.append(v)
        return Literal(tuple(cells), Constant(lim))

    def H(x, i):
        return literal_value(K(x), i)

    return ReductionPair("limn_g", K, H)


def _trace_literal(p, cfg: ProblemConfig) -> Literal:
    bound = cfg.oracle.index_bound
    lcfg = LearnerConfig(cfg.oracle, stability_window=2, max_steps=4 * bound + 16)
    trace = enum_learner(p, range(bound + 1), lcfg)
    if not trace.converged:
        raise ReductionAbort("enumeration learner did not stabilize")
    return Literal(trace.guesses, Constant(trace.guesses[-1]))


def _trace_pair(name: str, cfg: ProblemConfig) -> ReductionPair:
    """The enumeration learner's guess trace as a literal, read back
    unchanged.

    `kol_limn`: least indices as limits of the guesses.  `kolgeq_b`:
    index bounds as bounds; the guess trace is non-decreasing and tops
    out at the least index, so any bound of it is a valid Kol_>= answer.
    """
    return ReductionPair(name, lambda x: _trace_literal(x, cfg), lambda x, a: a)


def catalog_lpo_kol(cfg: ProblemConfig) -> ReductionPair:
    """Zero testing against the least zero-program index."""

    zero = Literal((), Constant(0))

    def K(x):
        return zero if literal_is_zero(x) else Literal((), Constant(1))

    def H(x, a):
        return 1 if a == min_index(zero, cfg.oracle) else 0

    return ReductionPair("lpo_kol", K, H)


# ---------------------------------------------------------------------------
# tupled families

_GHAT_STRIDE = 2


def _component_targets(tupled: Generated, stride: int, which: int,
                       window: Nat) -> Optional[list]:
    # the component inherits its window through the embedding: a tupled
    # index verified on 0..window pins the component only at positions
    # stride*n + which <= window
    if which > window:
        return None
    targets = []
    for n in range((window - which) // stride + 1):
        v = descriptor_get(tupled, stride * n + which)
        if v is None:
            return None
        targets.append(v)
    return targets


def _extract(i: Nat, stride: int, which: int) -> Program:
    try:
        return precompose_affine(i, stride, which)
    except ValueError as stop:
        raise ReductionAbort(str(stop))


def _unpack_ghat(x):
    return (x[0], _GHAT_STRIDE, x[1]) if isinstance(x, tuple) and len(x) == 2 else None


def _unpack_gstar(x):
    return (x[1], x[0], x[2]) if isinstance(x, tuple) and len(x) == 3 else None


def _component_spec(name: str, unpack) -> ProblemSpec:
    """Per-component view of the parallelized least-index problem.

    `unpack` reads an instance as (tupled Generated descriptor, stride,
    component), or gives None for a wrong shape; an answer is any index
    computing that component on the window.  `verify` also takes an
    extracted answer as `precompose_affine`'s program, and runs it without
    encoding its index.
    """

    def shaped(x) -> bool:
        parts = unpack(x)
        if parts is None:
            return False
        tupled, stride, which = parts
        return (isinstance(stride, int) and stride >= 1
                and isinstance(tupled, Generated) and which in range(stride))

    def in_domain(x, cfg):
        return shaped(x) and _component_targets(
            *unpack(x), cfg.oracle.window) is not None

    def verify(x, a, cfg):
        tupled, stride, which = unpack(x)
        targets = _component_targets(tupled, stride, which, cfg.oracle.window)
        if targets is None:
            return False
        for n, want in enumerate(targets):
            # padded so extraction overhead on top of a cap-verified
            # tupled index cannot masquerade as divergence
            budget = affine_budget(stride, which, n, cfg.oracle.cap)
            out = evaluate(a, n, budget)
            if out is None or out.value != want:
                return False
        return True

    def enumerate_answers(x, cfg):
        return frozenset(
            i for i in range(cfg.oracle.index_bound + 1) if verify(x, i, cfg))

    return ProblemSpec(name, in_domain, verify, enumerate_answers)


def make_ghat_spec() -> ProblemSpec:
    """Instances are (tupled, component) at the fixed stride 2."""
    return _component_spec("ghat", _unpack_ghat)


def make_gstar_spec() -> ProblemSpec:
    """Finite-family variant: instances are (width, tupled, component)."""
    return _component_spec("gstar", _unpack_gstar)


def make_family_g_spec() -> ProblemSpec:
    """Least-index problem relative to the tupled universe.

    The tupled functions live far beyond any affordable index bound, so
    unlike the plain least-index problem the answer set here includes
    the descriptor's own generating index alongside anything verified
    inside the bounded universe.  Every member is a genuine solution;
    the enumeration is universe-relative, which reports must state.
    """

    def in_domain(y, cfg):
        return isinstance(y, Generated) and total_on_window(y, cfg.oracle)

    def verify(y, a, cfg):
        return window_verify(a, y, cfg.oracle)

    def enumerate_answers(y, cfg):
        found = set(verified_indices(y, cfg.oracle))
        if window_verify(y.index, y, cfg.oracle):
            found.add(y.index)
        return frozenset(found)

    return ProblemSpec("g_family", in_domain, verify, enumerate_answers)


def _component_pair(name: str, unpack) -> ReductionPair:
    """One tupled least-index answer serves every component: extraction
    is precomposition with the stride embedding."""

    def K(x):
        return unpack(x)[0]

    def H(x, i):
        _, stride, which = unpack(x)
        return _extract(i, stride, which)

    return ReductionPair(name, K, H)


def catalog_ghat_g() -> ReductionPair:
    return _component_pair("ghat_g", _unpack_ghat)


def catalog_gstar_g() -> ReductionPair:
    """Finite variant of ghat_g; the width tag travels in the instance."""
    return _component_pair("gstar_g", _unpack_gstar)


# ---------------------------------------------------------------------------
# mutants


MUTATION_MODES = ("constant_h", "offset_h", "drop_k", "collapse_k", "feed_zero")


def mutate(r: ReductionPair, mode: str) -> ReductionPair:
    """Deliberately broken variant of r, used as a harness sensitivity
    control: a mutant passing the checker on a corpus that the original
    passes means the corpus is too weak."""
    name = f"{r.name}[{mode}]"
    if mode == "constant_h":
        return ReductionPair(name, r.K, lambda x, a: 0)
    if mode == "offset_h":
        return ReductionPair(name, r.K, lambda x, a: operator.index(r.H(x, a)) + 1)
    if mode == "drop_k":
        return ReductionPair(name, lambda x: x, r.H)
    if mode == "collapse_k":
        return ReductionPair(name, lambda x: Literal((), Constant(0)), r.H)
    if mode == "feed_zero":
        return ReductionPair(name, r.K, lambda x, a: r.H(x, 0))
    raise ValueError(f"unknown mutation mode {mode!r}")


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class ReductionCase:
    f: ProblemSpec
    g: ProblemSpec
    pair: ReductionPair
    mutant_modes: tuple[str, ...]


def reduction_registry(cfg: ProblemConfig) -> dict[str, ReductionCase]:
    """All catalog reductions with their endpoint problems and the
    mutation modes their corpora are expected to detect."""
    p = problem_registry()
    ghat, gstar, gfam = make_ghat_spec(), make_gstar_spec(), make_family_g_spec()
    cases = [
        ReductionCase(p["cn"], p["lim_n"], catalog_cn_limn(),
                      ("constant_h", "offset_h")),
        ReductionCase(p["lim_n"], p["cn"], catalog_limn_cn(cfg),
                      ("constant_h", "offset_h")),
        ReductionCase(p["inf"], p["cn"], catalog_inf_cn(),
                      ("constant_h", "offset_h")),
        ReductionCase(p["liminf_n"], p["lim_n"], catalog_liminf_minhat(),
                      ("constant_h", "offset_h")),
        ReductionCase(p["b"], p["kol_geq"], catalog_b_kolgeq(cfg),
                      ("constant_h", "collapse_k")),
        ReductionCase(p["lim_n"], p["g"], catalog_limn_g(cfg),
                      ("constant_h", "offset_h")),
        ReductionCase(p["kol"], p["lim_n"], _trace_pair("kol_limn", cfg),
                      ("constant_h", "offset_h")),
        ReductionCase(p["kol_geq"], p["b"], _trace_pair("kolgeq_b", cfg),
                      ("constant_h", "collapse_k")),
        ReductionCase(p["lpo"], p["kol"], catalog_lpo_kol(cfg),
                      ("constant_h", "drop_k")),
        ReductionCase(ghat, gfam, catalog_ghat_g(),
                      ("feed_zero", "drop_k")),
        ReductionCase(gstar, gfam, catalog_gstar_g(),
                      ("feed_zero", "drop_k")),
    ]
    return {c.pair.name: c for c in cases}
