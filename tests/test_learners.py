"""Learner tests.

Expected pocket tables and shrink traces for the small universe are
derived by hand from the known behavior of the first few indices:

    0 [] identity        4 [T 0 0] identity
    1 [Z 0] zero         5 [S 0, Z 0] zero
    2 [S 0] successor    6 [Z 0, S 0] one
    3 [Z 0, Z 0] zero    7 [J 0 0 0] diverges everywhere
"""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godellab.learners import (
    Dovetailed,
    GuessTrace,
    LearnerConfig,
    Pocket,
    PromiseViolation,
    _pocket_scan,
    amalgamation_learn,
    bounded_min_learner,
    build_pockets,
    enum_learner,
    kol_liminf_enumerator,
    run_to_limit,
    set_code,
    trace_to_csv,
    run_summary,
)
from godellab import numbering
from godellab.numbering import (
    Copy,
    Halted,
    Inc,
    Loop,
    clear_eval_cache,
    compile_loop,
    encode,
    evaluate,
    first_value_program,
)
from godellab.oracles import (
    OracleConfig,
    clear_oracle_cache,
    compatible,
    min_index,
    universe,
)
from godellab.spaces import Constant, Generated, Literal

CFG = LearnerConfig(OracleConfig(cap=200, window=12, index_bound=60),
                    stability_window=4, max_steps=500)

ZERO = Literal((), Constant(0))
ONE = Literal((), Constant(1))
IDENT = Generated(0, 1)
SUCC = Generated(2, 2)
PLUS2 = Generated(9, 3)

FULL = range(CFG.oracle.index_bound + 1)   # the whole universe 0..60


# ---------------------------------------------------------------------------
# run_to_limit


def test_constant_stream_converges_without_mind_changes():
    t = run_to_limit([5] * 10, 3, 100)
    assert t.converged
    assert t.mind_changes == 0
    assert t.stabilized_at == 0
    assert t.guesses == (5, 5, 5)


def test_single_switch_stream():
    t = run_to_limit([0, 1, 1, 1, 1, 1], 3, 100)
    assert t.converged
    assert t.stabilized_at == 1
    assert t.mind_changes == 1
    assert t.guesses == (0, 1, 1, 1)


def test_consumption_stops_at_stability():
    t = run_to_limit(iter([7, 7, 7, 9, 9]), 3, 100)
    assert t.converged and t.guesses == (7, 7, 7)


def test_max_steps_without_stability_is_divergent():
    t = run_to_limit([0, 1] * 50, 3, 10)
    assert not t.converged
    assert t.stabilized_at is None
    assert len(t.guesses) == 10
    assert t.mind_changes == 9


def test_exhausted_stream_without_stability_is_divergent():
    t = run_to_limit([0, 1, 2], 3, 100)
    assert not t.converged
    assert t.mind_changes == 2


def test_degenerate_parameters_rejected():
    with pytest.raises(ValueError):
        run_to_limit([1], 0, 10)
    with pytest.raises(ValueError):
        run_to_limit([1], 3, 0)


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=30),
       st.integers(min_value=1, max_value=5))
def test_trace_invariants(stream, window):
    t = run_to_limit(stream, window, 100)
    assert t.mind_changes == sum(
        1 for a, b in zip(t.guesses, t.guesses[1:]) if a != b)
    if t.converged:
        assert len(t.guesses) >= window
        tail = t.guesses[-window:]
        assert all(g == tail[0] for g in tail)
        at = t.stabilized_at
        assert all(g == t.guesses[-1] for g in t.guesses[at:])
        assert at == 0 or t.guesses[at - 1] != t.guesses[at]
    else:
        assert t.stabilized_at is None


# ---------------------------------------------------------------------------
# identification by enumeration


def test_enum_learner_identifies_zero():
    t = enum_learner(ZERO, FULL, CFG)
    assert t.converged
    assert t.guesses[-1] == 1 == min_index(ZERO, CFG.oracle)
    assert t.mind_changes == 1
    assert t.stabilized_at == 1


def test_enum_learner_witnesses_justify_every_skip():
    t = enum_learner(PLUS2, FULL, CFG)
    assert t.converged
    assert t.guesses[:9] == tuple(range(9))
    assert set(t.guesses[9:]) == {9}
    # each skipped candidate misses n + 2 somewhere on the window
    for cand in range(9):
        outs = [evaluate(cand, n, CFG.oracle.cap)
                for n in range(CFG.oracle.window + 1)]
        assert any(not isinstance(out, Halted) or out.value != n + 2
                   for n, out in enumerate(outs))


def test_enum_learner_reads_budget_exhaustion_as_divergence():
    t = enum_learner(PLUS2, FULL, CFG)
    # 7 (J 0 0 0) runs out of the cap at position 0 and is still skipped
    assert not isinstance(evaluate(7, 0, CFG.oracle.cap), Halted)
    assert 7 in t.guesses and t.guesses[-1] == 9


def test_cold_enum_learner_reads_each_cell_once(monkeypatch):
    runs = []
    real = numbering._run

    def counting(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(numbering, "_run", counting)
    clear_eval_cache()
    clear_oracle_cache()
    assert enum_learner(PLUS2, FULL, CFG).guesses[-1] == 9
    # 13 target runs of index 9 under its own budget, then each candidate
    # read only up to its first miss: one cell for each of 0..8 (7's is
    # the cap running out), and 9's 13 cells, which the memo already holds
    assert len(runs) == 22
    assert sum(len(row) for row in universe(CFG.oracle).rows) == 22


def test_enum_learner_gives_up_when_universe_exhausted():
    # nothing below 60 computes n+4
    p = Literal(tuple(range(4, 30)), Constant(30))
    small = LearnerConfig(OracleConfig(cap=200, window=8, index_bound=60),
                          stability_window=4, max_steps=500)
    t = enum_learner(p, FULL, small)
    assert not t.converged


@pytest.mark.parametrize("p", [ZERO, ONE, IDENT, SUCC, PLUS2])
def test_enum_learner_limit_is_least_index(p):
    t = enum_learner(p, FULL, CFG)
    assert t.converged
    assert t.guesses[-1] == min_index(p, CFG.oracle)


def test_enum_learner_total_class_searches_compiled_image():
    ident = compile_loop([])
    inc = compile_loop([Inc(0)])
    dbl = compile_loop([Loop(0, (Inc(1), Inc(1))), Copy(1, 0)])
    assert (ident, inc) == (0, 2)
    total = sorted((ident, inc, dbl))
    t = enum_learner(SUCC, total, CFG)
    assert t.converged and t.guesses[-1] == 2

    doubling = Generated(dbl, 200)
    t = enum_learner(doubling, total, CFG)
    assert t.converged and t.guesses[-1] == dbl
    # the full class misses it: no index below 60 doubles
    assert not enum_learner(doubling, FULL, CFG).converged


def test_enum_learner_rejects_partial_instances():
    with pytest.raises(ValueError):
        enum_learner(Generated(7, 50), FULL, CFG)


# ---------------------------------------------------------------------------
# pockets


def test_pocket_table_on_small_universe():
    pockets = build_pockets(7, CFG)
    # 3 and 5 compute zero as 1 does, and 4 the identity as 0 does, so
    # their pockets are 1's and 0's; 7's pocket holds both constants and
    # the identity, so it is not internally compatible
    assert [p.anchor for p in pockets] == [0, 1, 2, 6]
    members = {p.anchor: set(p.members) for p in pockets}
    assert members[0] == {0, 4, 7}
    assert members[1] == {1, 3, 5, 7}
    assert members[2] == {2, 7}
    assert members[6] == {6, 7}


def test_prune_drops_incompatible_and_duplicate_pockets():
    survivors = build_pockets(7, CFG)
    # 7's pocket is all of 0..7, so it holds 1 and 2, which disagree at
    # 0; 3, 4 and 5 have the pockets of 1, 0 and 1
    assert all(compatible(7, j, CFG.oracle) for j in range(8))
    assert not compatible(1, 2, CFG.oracle)
    assert {p.anchor for p in survivors}.isdisjoint({3, 4, 5, 7})
    sets = [p.members for p in survivors]
    assert len(set(sets)) == len(sets)
    for a in sets:
        for b in sets:
            assert a == b or not a <= b  # antichain


@given(st.integers(min_value=0, max_value=14))
@settings(max_examples=20, deadline=None)
def test_pruned_pockets_form_an_antichain(m):
    survivors = build_pockets(m, CFG)
    sets = [p.members for p in survivors]
    for a in sets:
        for b in sets:
            assert a == b or not a <= b
    for p in survivors:
        assert p.anchor in p.members


def test_pocket_scan_keeps_exactly_the_instance_pocket():
    survivors = build_pockets(7, CFG)
    targets = [0] * (CFG.oracle.window + 1)
    alive, guesses = _pocket_scan(targets, survivors, CFG.oracle)
    assert [set(p.members) for p in alive] == [{1, 3, 5, 7}]
    assert guesses[0] == 0  # identity pocket still alive at position 0
    assert guesses[-1] == 1


def test_pocket_scan_reports_plural_survivors():
    twins = [Pocket(1, frozenset({1})), Pocket(3, frozenset({3}))]
    alive, _ = _pocket_scan([0, 0, 0], twins, CFG.oracle)
    assert len(alive) == 2


# ---------------------------------------------------------------------------
# amalgamation


def test_amalgamation_identifies_zero_in_tiny_universe():
    got = amalgamation_learn(ZERO, 1, CFG)
    assert isinstance(got, Dovetailed)
    assert got.verified
    assert operator.index(got.index) == encode(first_value_program([1]))
    assert got.trace.guesses[0] == 0
    assert got.trace.guesses[-1] == 1
    assert got.trace.mind_changes == 1
    assert got.trace.converged


def test_amalgamation_promise_violation_when_universe_too_small():
    got = amalgamation_learn(SUCC, 1, CFG)
    assert isinstance(got, PromiseViolation)
    assert got.reason.startswith("0 pockets survive")


@pytest.mark.parametrize("p,m", [(IDENT, 0), (IDENT, 2), (ZERO, 1),
                                 (ZERO, 2), (SUCC, 2)])
def test_amalgamation_verifies_under_the_promise(p, m):
    assert min_index(p, CFG.oracle) <= m
    got = amalgamation_learn(p, m, CFG)
    assert isinstance(got, Dovetailed)
    assert got.verified
    assert got.trace.converged


# ---------------------------------------------------------------------------
# shrinking sets


def test_set_code_examples():
    assert set_code({0, 1, 2, 3}, 3) == 15
    assert set_code({0, 2}, 3) == 10
    assert set_code(set(), 5) == 0
    with pytest.raises(ValueError):
        set_code({4}, 3)


def test_bounded_min_shrinks_to_the_zero_program():
    got = bounded_min_learner(ZERO, 2, CFG)
    assert isinstance(got, Dovetailed)
    assert got.verified
    assert got.trace.guesses[:3] == (7, 6, 2)
    assert got.trace.guesses[0] == set_code({0, 1, 2}, 2)
    assert got.trace.guesses[-1] == set_code({1}, 2)


def test_bounded_min_keeps_lookalike_constant_until_refuted():
    got = bounded_min_learner(SUCC, 6, CFG)
    assert isinstance(got, Dovetailed)
    # index 6 computes 1̂ and matches n+1 at 0, so it outlives stage 0
    assert got.trace.guesses[:3] == (127, 17, 16)
    assert got.trace.guesses[-1] == set_code({2}, 6)
    assert got.verified


def test_bounded_min_codes_never_increase():
    got = bounded_min_learner(IDENT, 3, CFG)
    assert isinstance(got, Dovetailed)
    codes = got.trace.guesses
    assert codes[0] == 2 ** 4 - 1
    assert all(a >= b for a, b in zip(codes, codes[1:]))
    assert codes[-1] == set_code({0}, 3)


def test_bounded_min_reports_emptied_set():
    got = bounded_min_learner(Generated(65, 4), 2, CFG)  # n+3, Kol = 65
    assert isinstance(got, PromiseViolation)
    assert "refuted" in got.reason


def test_bounded_min_reports_unverifiable_survivor():
    # cap 1 hides every two-instruction program, so index 3 survives a
    # constant-5 instance it cannot actually compute
    starved = LearnerConfig(OracleConfig(cap=1, window=3, index_bound=60),
                            stability_window=2, max_steps=100)
    got = bounded_min_learner(Literal((), Constant(5)), 3, starved)
    assert isinstance(got, PromiseViolation)
    assert "verification" in got.reason


@pytest.mark.parametrize("p,k", [(IDENT, 0), (IDENT, 2), (ZERO, 1),
                                 (ZERO, 2), (SUCC, 2)])
def test_bounded_min_finds_least_index_under_promise(p, k):
    least = min_index(p, CFG.oracle)
    assert least <= k
    got = bounded_min_learner(p, k, CFG)
    assert isinstance(got, Dovetailed)
    assert got.verified
    codes = got.trace.guesses
    assert codes[-1] == set_code({least}, k)
    assert operator.index(got.index) == encode(first_value_program([least]))
    assert all(a >= b for a, b in zip(codes, codes[1:]))


# ---------------------------------------------------------------------------
# liminf enumeration


def test_liminf_stages_shrink_onto_zero_indices():
    cfg = LearnerConfig(OracleConfig(cap=200, window=6, index_bound=8),
                        stability_window=4, max_steps=500)
    stages = kol_liminf_enumerator(ZERO, cfg)
    assert stages[0] == (0, 1, 3, 4, 5, 8)
    assert stages[1] == (1, 3, 5, 8)
    assert stages[-1] == (1, 3, 5, 8)
    assert len(stages) == cfg.oracle.window + 1


@pytest.mark.parametrize("p", [ZERO, ONE, IDENT, SUCC, PLUS2])
def test_liminf_final_stage_minimum_is_kolmogorov(p):
    stages = kol_liminf_enumerator(p, CFG)
    least = min_index(p, CFG.oracle)
    mins = [min(s) for s in stages if s]
    assert len(mins) == len(stages)
    assert min(stages[-1]) == least
    assert all(least in s for s in stages)
    assert all(a <= b for a, b in zip(mins, mins[1:]))
    assert all(set(b) <= set(a) for a, b in zip(stages, stages[1:]))


# ---------------------------------------------------------------------------
# export formats


def test_trace_csv_shape():
    t = GuessTrace((0, 1, 1), 1, 1, True)
    assert trace_to_csv(t) == (
        "step,guess,mind_change_flag\n0,0,0\n1,1,1\n2,1,0\n")


def test_run_summary_fields():
    t = run_to_limit([0, 1, 1, 1, 1], 3, 50)
    assert run_summary("lit tail=const:0", "enum", t, True) == {
        "instance": "lit tail=const:0",
        "learner": "enum",
        "converged": True,
        "stabilized_at": 1,
        "mind_changes": 1,
        "final_guess": 1,
        "verified": True,
    }
