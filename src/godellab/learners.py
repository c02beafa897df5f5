"""Limit learners: enumeration, amalgamation, shrinking sets, liminf.

All four learners produce guess streams judged by `run_to_limit`, which
declares convergence once a configured number of consecutive identical
guesses has been seen.  True limit convergence is out of reach at desk
scale; the stability window is the documented stand-in, and callers that
need certainty re-verify the final guess against the oracle.

Capped-halting conventions used by the learners:

  * enumeration: a candidate is abandoned when it halts with a wrong
    value OR exhausts the cap (the true learner consults the halting
    oracle; under a cap, budget exhaustion is read as divergence).
  * pocket elimination and set shrinking: an index is removed only on a
    halting disagreement; divergence keeps it (the dovetailed output
    program skips non-halting members on its own).

The promise learners answer with first_value_program, so final member sets
must stay tiny: an index's digit count doubles per instruction, and the
dovetailer costs max(members) + 3*len(members) + 10 instructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from .numbering import Nat, Program, ProgramIndex, first_value_program
from .oracles import (
    OracleConfig,
    compatible,
    universe,
    window_targets,
    window_verify,
)
from .spaces import SeqDescriptor

# ---------------------------------------------------------------------------
# configuration, traces, outcomes


@dataclass(frozen=True)
class LearnerConfig:
    oracle: OracleConfig
    stability_window: Nat
    max_steps: Nat

    def __post_init__(self):
        for name in ("stability_window", "max_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class GuessTrace:
    guesses: tuple[Nat, ...]
    mind_changes: Nat
    stabilized_at: Optional[Nat]
    converged: bool


@dataclass(frozen=True)
class Dovetailed:
    """A promise learner's answer: the first-value program that dovetails
    its final set, whose index is encoded only when read, and the guesses
    that led there."""

    index: Program
    trace: GuessTrace
    verified: bool


@dataclass(frozen=True)
class PromiseViolation:
    """The run's precondition did not hold (or caps were too small)."""

    reason: str


def run_to_limit(guesses: Iterable[Nat], stability_window: Nat,
                 max_steps: Nat) -> GuessTrace:
    """Drive a guess stream and judge its convergence.

    Consumes at most max_steps guesses.  Convergence is declared as soon
    as stability_window consecutive equal guesses have been seen (the
    stream is then abandoned), or when the stream ends with a trailing
    equal block at least that long.  stabilized_at is the start of the
    maximal trailing equal block.
    """
    if stability_window < 1 or max_steps < 1:
        raise ValueError("stability_window and max_steps must be positive")
    trace: list[Nat] = []
    streak = 0
    converged = False
    for g in guesses:
        if trace and g == trace[-1]:
            streak += 1
        else:
            streak = 1
        trace.append(g)
        if streak >= stability_window:
            converged = True
            break
        if len(trace) >= max_steps:
            break
    mind_changes = sum(1 for a, b in zip(trace, trace[1:]) if a != b)
    stabilized_at = None
    if converged:
        at = len(trace) - 1
        while at > 0 and trace[at - 1] == trace[-1]:
            at -= 1
        stabilized_at = at
    return GuessTrace(tuple(trace), mind_changes, stabilized_at, converged)


# ---------------------------------------------------------------------------
# identification by enumeration


def _enum_guesses(candidates: Iterable[ProgramIndex], targets: tuple[Nat, ...],
                  cfg: LearnerConfig) -> Iterator[Nat]:
    table = universe(cfg.oracle)
    for c in candidates:
        yield c
        if table.agrees(c, targets):
            for _ in range(cfg.stability_window):
                yield c
            return
    # universe exhausted without a verified candidate: end uncommitted


def enum_learner(p: SeqDescriptor, candidates: Iterable[ProgramIndex],
                 cfg: LearnerConfig) -> GuessTrace:
    """Gold-style identification: walk the candidates in order, keep the
    first that survives a full window audit.

    Each candidate is read from the universe table only up to its first
    miss, so one that exhausts the cap is skipped as divergent.
    """
    targets = window_targets(p, cfg.oracle)
    return run_to_limit(_enum_guesses(candidates, targets, cfg),
                        cfg.stability_window, cfg.max_steps)


# ---------------------------------------------------------------------------
# pockets and amalgamation


@dataclass(frozen=True)
class Pocket:
    anchor: ProgramIndex
    members: frozenset[ProgramIndex]


def build_pockets(m: Nat, cfg: LearnerConfig) -> tuple[Pocket, ...]:
    """The pockets of the universe 0..m that survive, in anchor order.

    Pocket P_i = {j <= m : phi_i compatible with phi_j}.  P_i survives
    when its members are pairwise compatible and no i' < i has the same
    pocket.  Indices with one row have one pocket, so each class of
    equal rows is compared through its least index, which anchors it;
    compatibility is symmetric and reflexive, so each pair of classes is
    compared once.
    """
    if m < 0:
        raise ValueError("universe bound must be a natural")
    oracle = cfg.oracle
    table = universe(oracle)
    by_row: dict[tuple, list[ProgramIndex]] = {}
    for i in range(m + 1):
        by_row.setdefault(table.row(i), []).append(i)
    classes = {same[0]: same for same in by_row.values()}
    anchors = list(classes)
    agree = {}
    for x, a in enumerate(anchors):
        agree[a, a] = True
        for b in anchors[x + 1:]:
            agree[a, b] = agree[b, a] = compatible(a, b, oracle)

    survivors: dict[frozenset, Pocket] = {}
    for a in classes:
        mates = [b for b in classes if agree[a, b]]
        if all(agree[b, c] for b in mates for c in mates):
            members = frozenset(j for b in mates for j in classes[b])
            survivors.setdefault(members, Pocket(a, members))
    return tuple(survivors.values())


def _refutes(got: Optional[Nat], want: Nat) -> bool:
    """A halting disagreement; running out of cap refutes nothing."""
    return got is not None and got != want


def _pocket_scan(targets: Sequence[Nat], survivors: Sequence[Pocket],
                 oracle: OracleConfig) -> tuple[list[Pocket], list[Nat]]:
    """Eliminate p-incompatible pockets along the instance's prefix.

    A pocket dies at position n when one of its members halts there with
    a value different from the target.  Emits the leading live anchor
    per stage as the guess stream.
    """
    value = universe(oracle).value
    alive = list(survivors)
    guesses = []
    for n, want in enumerate(targets):
        alive = [pocket for pocket in alive if not any(
            _refutes(value(j, n), want) for j in sorted(pocket.members))]
        if not alive:
            break
        guesses.append(alive[0].anchor)
    return alive, guesses


def amalgamation_learn(
    p: SeqDescriptor, m: Nat, cfg: LearnerConfig
) -> Union[Dovetailed, PromiseViolation]:
    """Pocket-amalgamation learner: take the surviving pockets of the
    universe 0..m, eliminate those that contradict p, and dovetail the
    one left.

    Requires the promise m >= min_index(p); with it, exactly one pocket
    is left and its dovetailed first-value program computes p on the
    window.  Zero or several left are reported as a promise violation,
    not an error.
    """
    oracle = cfg.oracle
    targets = window_targets(p, oracle)
    alive, guesses = _pocket_scan(targets, build_pockets(m, cfg), oracle)
    trace = run_to_limit(guesses, cfg.stability_window, cfg.max_steps)
    if len(alive) != 1:
        return PromiseViolation(
            f"{len(alive)} pockets survive the scan; the promise needs exactly 1")
    index = first_value_program(sorted(alive[0].members))
    return Dovetailed(index, trace, window_verify(index, p, oracle))


# ---------------------------------------------------------------------------
# shrinking finite sets


def set_code(members, k: Nat) -> Nat:
    """Integer stand-in for d(A) = sum 2^-i: code(A, k) = sum 2^(k-i).

    Order-isomorphic to d on subsets of {0..k}, exact in integers.
    """
    if any(i < 0 or i > k for i in members):
        raise ValueError("members must lie in 0..k")
    return sum(2 ** (k - i) for i in set(members))


def bounded_min_learner(
    p: SeqDescriptor, k: Nat, cfg: LearnerConfig
) -> Union[Dovetailed, PromiseViolation]:
    """Shrinking-set learner: start from A_0 = {0..k} and shrink.

    An index leaves the set on a halting disagreement with p; the guess
    stream is the non-increasing code(A, k) sequence, one code per
    stage, and the final set is dovetailed into a first-value program.
    The promise k >= min_index(p) makes the final program compute p;
    failure to window-verify is reported as a promise violation.
    """
    if k < 0:
        raise ValueError("k must be a natural")
    oracle = cfg.oracle
    targets = window_targets(p, oracle)
    value = universe(oracle).value
    members = set(range(k + 1))
    codes = [set_code(members, k)]
    for n, want in enumerate(targets):
        members = {j for j in members if not _refutes(value(j, n), want)}
        codes.append(set_code(members, k))
        if not members:
            break
    trace = run_to_limit(codes, cfg.stability_window, cfg.max_steps)
    if not members:
        return PromiseViolation(
            "every index of 0..k was refuted; promise k >= Kol(p) fails")
    index = first_value_program(sorted(members))
    if not window_verify(index, p, oracle):
        return PromiseViolation(
            "final dovetailed program fails window verification")
    return Dovetailed(index, trace, True)


# ---------------------------------------------------------------------------
# liminf-style enumeration


def kol_liminf_enumerator(p: SeqDescriptor, cfg: LearnerConfig) -> tuple[tuple[Nat, ...], ...]:
    """Stage t emits every index validating p on positions 0..t.

    The emission sets shrink as stages lengthen; indices emitted at
    every late stage are exactly the window-verified ones, so the least
    final-stage emission is the capped Kolmogorov complexity of p.
    """
    oracle = cfg.oracle
    targets = window_targets(p, oracle)
    value = universe(oracle).value
    stages = []
    alive = range(oracle.index_bound + 1)
    for t, want in enumerate(targets):
        alive = [i for i in alive if value(i, t) == want]
        stages.append(tuple(alive))
    return tuple(stages)


# ---------------------------------------------------------------------------
# trace export


def trace_to_csv(trace: GuessTrace) -> str:
    lines = ["step,guess,mind_change_flag"]
    prev = None
    for step, g in enumerate(trace.guesses):
        flag = 1 if prev is not None and g != prev else 0
        lines.append(f"{step},{g},{flag}")
        prev = g
    return "\n".join(lines) + "\n"


def run_summary(instance: str, learner: str, trace: GuessTrace,
                verified: Optional[bool]) -> dict:
    return {
        "instance": instance,
        "learner": learner,
        "converged": trace.converged,
        "stabilized_at": trace.stabilized_at,
        "mind_changes": trace.mind_changes,
        "final_guess": trace.guesses[-1] if trace.guesses else None,
        "verified": verified,
    }
