"""Benchmark problems and the least-index family, as executable specs.

Each problem is packaged as four functions over a shared config: a domain
check, an answer verifier, a bounded answer enumerator, and a reference
solver.  Answers are plain naturals.  The first-order problems are
decided exactly on Literal descriptors (their value sets, limits, and
cluster sets have closed forms); the least-index family additionally
accepts Generated descriptors and works relative to the capped oracle
universe, with window verification standing in for true equality of
functions.

Domain conventions, following the source definitions:

  * lpo: answer 1 iff the sequence is identically zero, else 0.
  * llpo: the instance is a stride-2 interleaved pair; answer i is valid
    iff component i is not identically zero; the all-zero pair is
    outside the domain.
  * lim_n: domain is the convergent (eventually constant) literals.
  * b: valid answers are the upper bounds of the value set.
  * inf: least value NOT enumerated by the sequence (min of the closed
    choice solution set).
  * min: least value enumerated by the sequence.
  * cn / kn: the sequence enumerates forbidden values; any value not in
    its range (and, for kn, at most the packaged bound m) is valid.
  * cl_n / bwt_n: cluster points; every literal is bounded, so bwt_n is
    cl_n with an explicit boundedness reading.
  * liminf_n: least cluster point.
  * g / kol / g_geq / kol_geq: window-verified indices within the
    universe; kol pins the least one; the _geq forms carry or produce
    upper bounds on it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, FrozenSet, Optional

from .numbering import Nat
from .oracles import OracleConfig, min_index, window_verify
from .spaces import (
    PARTIAL,
    Generated,
    Literal,
    SeqDescriptor,
    cluster_values,
    component_literal,
    descriptor_get,
    is_convergent,
    literal_is_zero,
    literal_least_absent,
    literal_limit,
    literal_liminf,
    literal_min,
    literal_sup,
    literal_values,
)

# ---------------------------------------------------------------------------
# config and spec shell


@dataclass(frozen=True)
class ProblemConfig:
    oracle: OracleConfig
    ceiling: Nat

    def __post_init__(self):
        if self.ceiling < 1:
            raise ValueError("answer ceiling must be positive")


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    domain_check: Callable[[object, ProblemConfig], bool]
    verify: Callable[[object, Nat, ProblemConfig], bool]
    enumerate_answers: Callable[[object, ProblemConfig], FrozenSet[Nat]]
    solve_ref: Callable[[object, ProblemConfig], Nat]


def _is_literal(inst) -> bool:
    return isinstance(inst, Literal)


def _single_valued(name: str, in_domain, answer_of) -> ProblemSpec:
    """Spec shell for problems with exactly one valid answer."""

    def verify(inst, a, cfg):
        return a == answer_of(inst, cfg)

    def enumerate_answers(inst, cfg):
        return frozenset({answer_of(inst, cfg)})

    return ProblemSpec(name, in_domain, verify, enumerate_answers, answer_of)


# ---------------------------------------------------------------------------
# omniscience


def make_lpo() -> ProblemSpec:
    def answer(inst, cfg):
        return 1 if literal_is_zero(inst) else 0

    return _single_valued("lpo", lambda inst, cfg: _is_literal(inst), answer)


def make_llpo() -> ProblemSpec:
    def in_domain(inst, cfg):
        if not _is_literal(inst):
            return False
        return not literal_is_zero(inst)

    def verify(inst, a, cfg):
        if a not in (0, 1):
            return False
        return not literal_is_zero(component_literal(inst, a))

    def enumerate_answers(inst, cfg):
        return frozenset(a for a in (0, 1) if verify(inst, a, cfg))

    def solve_ref(inst, cfg):
        return min(enumerate_answers(inst, cfg))

    return ProblemSpec("llpo", in_domain, verify, enumerate_answers, solve_ref)


# ---------------------------------------------------------------------------
# limits and bounds


def make_lim_n() -> ProblemSpec:
    def in_domain(inst, cfg):
        return _is_literal(inst) and is_convergent(inst)

    return _single_valued("lim_n", in_domain, lambda inst, cfg: literal_limit(inst))


def make_b() -> ProblemSpec:
    def verify(inst, a, cfg):
        return a >= literal_sup(inst)

    def enumerate_answers(inst, cfg):
        return frozenset(range(literal_sup(inst), cfg.ceiling + 1))

    return ProblemSpec(
        "b",
        lambda inst, cfg: _is_literal(inst),
        verify,
        enumerate_answers,
        lambda inst, cfg: literal_sup(inst),
    )


def make_inf() -> ProblemSpec:
    # least number problem: the smallest value the sequence never takes
    return _single_valued(
        "inf",
        lambda inst, cfg: _is_literal(inst),
        lambda inst, cfg: literal_least_absent(inst),
    )


def make_min() -> ProblemSpec:
    return _single_valued(
        "min",
        lambda inst, cfg: _is_literal(inst),
        lambda inst, cfg: literal_min(inst),
    )


# ---------------------------------------------------------------------------
# choice


def make_cn() -> ProblemSpec:
    def in_domain(inst, cfg):
        # the solution set N \ range is never empty for a literal
        return _is_literal(inst)

    def verify(inst, a, cfg):
        return a >= 0 and a not in literal_values(inst)

    def enumerate_answers(inst, cfg):
        present = literal_values(inst)
        return frozenset(a for a in range(cfg.ceiling + 1) if a not in present)

    return ProblemSpec("cn", in_domain, verify, enumerate_answers,
                       lambda inst, cfg: literal_least_absent(inst))


def make_kn() -> ProblemSpec:
    def _shaped(inst) -> bool:
        return (
            isinstance(inst, tuple)
            and len(inst) == 2
            and _is_literal(inst[0])
            and isinstance(inst[1], int)
            and inst[1] >= 0
        )

    def in_domain(inst, cfg):
        if not _shaped(inst):
            return False
        d, m = inst
        return literal_values(d) < set(range(m + 1))

    def verify(inst, a, cfg):
        d, m = inst
        return 0 <= a <= m and a not in literal_values(d)

    def enumerate_answers(inst, cfg):
        d, m = inst
        present = literal_values(d)
        return frozenset(a for a in range(m + 1) if a not in present)

    def solve_ref(inst, cfg):
        return min(enumerate_answers(inst, cfg))

    return ProblemSpec("kn", in_domain, verify, enumerate_answers, solve_ref)


# ---------------------------------------------------------------------------
# cluster structure


def make_cl_n() -> ProblemSpec:
    def verify(inst, a, cfg):
        return a in cluster_values(inst)

    return ProblemSpec(
        "cl_n",
        lambda inst, cfg: _is_literal(inst),
        verify,
        lambda inst, cfg: cluster_values(inst),
        lambda inst, cfg: literal_liminf(inst),
    )


def make_liminf_n() -> ProblemSpec:
    return _single_valued(
        "liminf_n",
        lambda inst, cfg: _is_literal(inst),
        lambda inst, cfg: literal_liminf(inst),
    )


# ---------------------------------------------------------------------------
# the least-index family


def _total_on_window(d: SeqDescriptor, cfg: ProblemConfig) -> bool:
    if isinstance(d, Literal):
        return True
    if not isinstance(d, Generated):
        return False
    return all(
        descriptor_get(d, n) is not PARTIAL for n in range(cfg.oracle.window + 1)
    )


def _g_domain(d, cfg: ProblemConfig) -> bool:
    return _total_on_window(d, cfg) and min_index(d, cfg.oracle) is not None


def _verified_indices(d, cfg: ProblemConfig) -> FrozenSet[Nat]:
    least = min_index(d, cfg.oracle)
    if least is None:
        return frozenset()
    return frozenset(
        i for i in range(least, cfg.oracle.index_bound + 1)
        if window_verify(i, d, cfg.oracle)
    )


def make_g() -> ProblemSpec:
    def verify(inst, a, cfg):
        return window_verify(a, inst, cfg.oracle)

    return ProblemSpec(
        "g",
        _g_domain,
        verify,
        _verified_indices,
        lambda inst, cfg: min_index(inst, cfg.oracle),
    )


def make_kol() -> ProblemSpec:
    return _single_valued(
        "kol", _g_domain, lambda inst, cfg: min_index(inst, cfg.oracle)
    )


def make_g_geq() -> ProblemSpec:
    def _shaped(inst) -> bool:
        return isinstance(inst, tuple) and len(inst) == 2 and isinstance(inst[1], int)

    def in_domain(inst, cfg):
        if not _shaped(inst):
            return False
        d, m = inst
        if not _total_on_window(d, cfg):
            return False
        least = min_index(d, cfg.oracle)
        return least is not None and m >= least

    def verify(inst, a, cfg):
        return window_verify(a, inst[0], cfg.oracle)

    return ProblemSpec(
        "g_geq",
        in_domain,
        verify,
        lambda inst, cfg: _verified_indices(inst[0], cfg),
        lambda inst, cfg: min_index(inst[0], cfg.oracle),
    )


def make_kol_geq() -> ProblemSpec:
    def verify(inst, a, cfg):
        least = min_index(inst, cfg.oracle)
        return least is not None and a >= least

    def enumerate_answers(inst, cfg):
        least = min_index(inst, cfg.oracle)
        if least is None:
            return frozenset()
        return frozenset(range(least, cfg.ceiling + 1))

    return ProblemSpec(
        "kol_geq",
        _g_domain,
        verify,
        enumerate_answers,
        lambda inst, cfg: min_index(inst, cfg.oracle),
    )


# ---------------------------------------------------------------------------
# registry


def problem_registry() -> dict[str, ProblemSpec]:
    specs = [
        make_lpo(),
        make_llpo(),
        make_lim_n(),
        make_b(),
        make_inf(),
        make_min(),
        make_cn(),
        make_kn(),
        make_cl_n(),
        replace(make_cl_n(), name="bwt_n"),
        make_liminf_n(),
        make_g(),
        make_kol(),
        make_g_geq(),
        make_kol_geq(),
    ]
    return {s.name: s for s in specs}
