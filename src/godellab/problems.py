"""Benchmark problems and the least-index family, as executable specs.

Each problem is packaged as three functions over a shared config: a domain
check, an answer verifier, and a bounded answer enumerator that gives the
whole solution set up to the config's bounds.  Answers are plain naturals.
The first-order problems are decided exactly on Literal descriptors (their
value sets, limits, and cluster sets have closed forms); the least-index
family additionally accepts Generated descriptors and works relative to
the capped oracle universe, with window verification standing in for true
equality of functions.

Domain conventions, following the source definitions:

  * lpo: answer 1 iff the sequence is identically zero, else 0.
  * lim_n: domain is the convergent (eventually constant) literals.
  * b: valid answers are the upper bounds of the value set.
  * inf: least value NOT enumerated by the sequence (min of the closed
    choice solution set).
  * cn: the sequence enumerates forbidden values; any value not in its
    range is valid.
  * liminf_n: least cluster point.
  * g / kol / g_geq / kol_geq: window-verified indices within the
    universe; kol pins the least one; the _geq forms carry or produce
    upper bounds on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Optional

from .numbering import Nat
from .oracles import (
    OracleConfig,
    min_index,
    universe,
    verified_indices,
    window_verify,
)
from .spaces import (
    Generated,
    Literal,
    is_convergent,
    literal_is_zero,
    literal_least_absent,
    literal_limit,
    literal_liminf,
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


def _is_literal(inst) -> bool:
    return isinstance(inst, Literal)


def _single_valued(name: str, in_domain, answer_of) -> ProblemSpec:
    """Spec shell for problems with exactly one valid answer."""

    def verify(inst, a, cfg):
        return a == answer_of(inst, cfg)

    def enumerate_answers(inst, cfg):
        return frozenset({answer_of(inst, cfg)})

    return ProblemSpec(name, in_domain, verify, enumerate_answers)


# ---------------------------------------------------------------------------
# omniscience


def make_lpo() -> ProblemSpec:
    def answer(inst, cfg):
        return 1 if literal_is_zero(inst) else 0

    return _single_valued("lpo", lambda inst, cfg: _is_literal(inst), answer)


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
    )


def make_inf() -> ProblemSpec:
    # least number problem: the smallest value the sequence never takes
    return _single_valued(
        "inf",
        lambda inst, cfg: _is_literal(inst),
        lambda inst, cfg: literal_least_absent(inst),
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

    return ProblemSpec("cn", in_domain, verify, enumerate_answers)


# ---------------------------------------------------------------------------
# cluster structure


def make_liminf_n() -> ProblemSpec:
    return _single_valued(
        "liminf_n",
        lambda inst, cfg: _is_literal(inst),
        lambda inst, cfg: literal_liminf(inst),
    )


# ---------------------------------------------------------------------------
# the least-index family


def _least(d, cfg: ProblemConfig) -> Optional[Nat]:
    """The least index of a Literal or Generated d total on the window;
    None for any other d, or when no index fits.  The table and d's
    values are looked up once."""
    if not isinstance(d, (Literal, Generated)):
        return None
    table = universe(cfg.oracle)
    values = table.prefix(d)
    return table.least(values) if len(values) > cfg.oracle.window else None


def _g_domain(d, cfg: ProblemConfig) -> bool:
    return _least(d, cfg) is not None


def make_g() -> ProblemSpec:
    def verify(inst, a, cfg):
        return window_verify(a, inst, cfg.oracle)

    return ProblemSpec(
        "g",
        _g_domain,
        verify,
        lambda inst, cfg: verified_indices(inst, cfg.oracle),
    )


def make_kol() -> ProblemSpec:
    return _single_valued(
        "kol", _g_domain, lambda inst, cfg: min_index(inst, cfg.oracle)
    )


def make_g_geq() -> ProblemSpec:
    def _shaped(inst) -> bool:
        return isinstance(inst, tuple) and len(inst) == 2 and isinstance(inst[1], int)

    def in_domain(inst, cfg):
        least = _least(inst[0], cfg) if _shaped(inst) else None
        return least is not None and inst[1] >= least

    def verify(inst, a, cfg):
        return window_verify(a, inst[0], cfg.oracle)

    return ProblemSpec(
        "g_geq",
        in_domain,
        verify,
        lambda inst, cfg: verified_indices(inst[0], cfg.oracle),
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
    )


# ---------------------------------------------------------------------------
# registry


def problem_registry() -> dict[str, ProblemSpec]:
    specs = [
        make_lpo(),
        make_lim_n(),
        make_b(),
        make_inf(),
        make_cn(),
        make_liminf_n(),
        make_g(),
        make_kol(),
        make_g_geq(),
        make_kol_geq(),
    ]
    return {s.name: s for s in specs}
