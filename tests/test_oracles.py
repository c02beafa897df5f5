"""Oracle tests.

Frozen answers below were derived by hand from the numbering: index 0 is
the empty program (identity), 1 is [Z 0], 2 is [S 0], 6 is [Z 0, S 0],
9 is [S 0, S 0], 7 is the self-loop [J 0 0 0].  The R-set facts follow
by enumerating the candidate indices i < n by hand.
"""

import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from godellab.learners import LearnerConfig, kol_liminf_enumerator
from godellab.numbering import Halted, clear_eval_cache, evaluate
from godellab.oracles import (
    OracleConfig,
    clear_oracle_cache,
    compatible,
    in_R,
    min_index,
    search_R,
    universe,
    window_verify,
)
from godellab.problems import ProblemConfig, make_g
from godellab.spaces import (
    Constant,
    Generated,
    Literal,
    Periodic,
    compile_literal,
    descriptor_get,
    literal_eval_budget,
)

CFG = OracleConfig(cap=200, window=16, index_bound=400)


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(0, 1, 1)
    with pytest.raises(ValueError):
        OracleConfig(1, 0, 1)
    with pytest.raises(ValueError):
        OracleConfig(1, 1, 0)


# ---------------------------------------------------------------------------
# compatibility


def test_compatible_frozen_examples():
    # 1 and 6 compute zero and one, 2 the successor: all differ at 0
    assert compatible(1, 2, CFG) is False
    assert compatible(2, 1, CFG) is False
    assert compatible(1, 6, CFG) is False
    assert compatible(1, 3, CFG) is True


def test_compatible_reads_the_last_window_position():
    # the identity (0) and zero (1) agree at 0 and differ first at 1, the
    # last position of window 1
    assert compatible(0, 1, OracleConfig(cap=200, window=1, index_bound=400)) is False


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 500))
def test_compatible_reflexive(i):
    assert compatible(i, i, CFG) is True


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 500))
def test_divergent_program_compatible_with_all(j):
    # index 7 never halts, so its joint domain with anything is empty
    assert compatible(7, j, CFG) is True


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 300), st.integers(0, 300), st.integers(1, 80))
def test_incompatibility_witness_persists_under_larger_cap(i, j, cap):
    small = OracleConfig(cap, 8, 1)
    if compatible(i, j, small) is False:
        big = OracleConfig(cap * 3, 8, 1)
        assert compatible(i, j, big) is False
        # some position of the window still has both halt and disagree
        outs = [(evaluate(i, n, big.cap), evaluate(j, n, big.cap))
                for n in range(9)]
        assert any(isinstance(a, Halted) and isinstance(b, Halted)
                   and a.value != b.value for a, b in outs)


# ---------------------------------------------------------------------------
# the random set R


def test_in_R_frozen_examples():
    for k in range(10):
        assert in_R(k, 0, CFG)
    # i < 1 means only the identity; identity(0) = 0 != 1
    assert in_R(0, 1, CFG)
    # identity(1) = 1, witnessed
    assert not in_R(1, 1, CFG)


def test_in_R_sees_the_candidate_at_index_bound():
    # past index_bound the candidates are 0..index_bound; of 0..9 only
    # 9 = [S 0, S 0] maps 8 to 10
    assert not in_R(8, 10, OracleConfig(cap=200, window=16, index_bound=9))
    assert in_R(8, 10, OracleConfig(cap=200, window=16, index_bound=8))


def test_in_R_has_large_members_for_k0():
    cfg = OracleConfig(cap=10_000, window=1, index_bound=2000)
    hits = [n for n in range(101, 500) if in_R(0, n, cfg)]
    assert hits, "no random pair <0,n> with 100 < n < 500"


def test_search_R_frozen_examples():
    assert search_R(5, 0, CFG, 50) == 0
    assert search_R(0, 1, CFG, 2000) == 1
    assert search_R(0, 2, CFG, 2000) == 2
    assert search_R(1, 1, CFG, 2000) == 2
    assert search_R(1, 1, CFG, 1) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(0, 40))
def test_search_R_result_is_least_and_in_R(k, lower):
    n = search_R(k, lower, CFG, lower + 200)
    assert n is not None
    assert n >= lower and in_R(k, n, CFG)
    assert all(not in_R(k, m, CFG) for m in range(lower, n))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 60), st.integers(1, 150))
def test_in_R_anti_monotone_in_cap(k, n, cap):
    small = OracleConfig(cap, 1, 300)
    big = OracleConfig(cap * 2 + 7, 1, 300)
    if in_R(k, n, big):
        assert in_R(k, n, small)


# ---------------------------------------------------------------------------
# least verified index


ZERO = Literal((), Constant(0))
ONE_HAT = Literal((), Constant(1))
IDENTITY = Generated(0, 1)
SUCC = Generated(2, 2)
PLUS_TWO = Generated(9, 3)


def test_min_index_frozen_table():
    assert min_index(ZERO, CFG) == 1
    assert min_index(IDENTITY, CFG) == 0
    assert min_index(SUCC, CFG) == 2
    assert min_index(ONE_HAT, CFG) == 6
    assert min_index(PLUS_TWO, CFG) == 9


def test_min_index_result_window_verifies():
    for d in (ZERO, IDENTITY, SUCC, ONE_HAT, PLUS_TWO):
        i = min_index(d, CFG)
        assert window_verify(i, d, CFG)
        assert all(not window_verify(j, d, CFG) for j in range(i))


def test_min_index_not_found_reported_as_none():
    # nothing tiny computes the 5,6,7,... sequence within a 3-index universe
    cramped = OracleConfig(cap=50, window=4, index_bound=3)
    assert min_index(Literal((5,), Constant(6)), cramped) is None


def test_min_index_finds_a_least_index_at_index_bound():
    # 9 is PLUS_TWO's least index, and the last candidate of this universe;
    # the second query reads the table the first one filled
    cfg = OracleConfig(cap=200, window=16, index_bound=9)
    clear_oracle_cache()
    assert min_index(PLUS_TWO, cfg) == 9
    assert min_index(PLUS_TWO, cfg) == 9
    assert min_index(PLUS_TWO, OracleConfig(cap=200, window=16, index_bound=8)) is None


def test_min_index_rejects_partial_descriptor():
    with pytest.raises(ValueError):
        min_index(Generated(7, 10), CFG)


def test_compiled_literal_is_a_verifying_witness():
    for d in (
        Literal((), Constant(0)),
        Literal((1,), Constant(2)),
        Literal((), Periodic((0, 1))),
        Literal((0, 1), Constant(2)),
    ):
        idx = compile_literal(d)
        cfg = OracleConfig(
            cap=max(literal_eval_budget(d, n) for n in range(CFG.window + 1)),
            window=CFG.window,
            index_bound=CFG.index_bound,
        )
        assert window_verify(idx, d, cfg)
        found = min_index(d, cfg)
        if found is not None:
            assert found <= idx


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 60), st.integers(4, 10))
def test_min_index_anti_monotone_in_cap(cap, window):
    small = OracleConfig(cap, window, 120)
    big = OracleConfig(cap * 2 + 5, window, 120)
    for d in (ZERO, SUCC, Literal((0,), Constant(1))):
        lo, hi = min_index(d, small), min_index(d, big)
        if lo is not None and hi is not None:
            assert hi <= lo


def test_min_index_never_decreases_when_window_grows():
    # a longer window can only rule candidates out
    for d in (ZERO, ONE_HAT, Literal((0,), Constant(1)), Literal((2, 1), Constant(0))):
        prev = None
        for window in (1, 4, 9, 16):
            cfg = OracleConfig(cap=300, window=window, index_bound=400)
            cur = min_index(d, cfg)
            if prev is not None and cur is not None:
                assert cur >= prev
            if cur is not None:
                prev = cur


def test_min_cache_is_transparent():
    clear_oracle_cache()
    a = min_index(ZERO, CFG)
    b = min_index(ZERO, CFG)
    clear_oracle_cache()
    clear_eval_cache()
    c = min_index(ZERO, CFG)
    assert a == b == c


# ---------------------------------------------------------------------------
# window verification against a partial descriptor

# [J 0 1 3, S 1, J 0 0 0] counts R1 up to the argument: the identity in
# 3n + 1 steps, so under budget 7 it settles 0, 1, 2 and is partial from 3
COUNT_UP = Generated(193853, 7)


@pytest.mark.parametrize("index_bound", [120, 1])
def test_window_verify_partial_descriptor_direction(index_bound):
    # the same verdicts inside the table (120) and above it (1)
    cfg = OracleConfig(cap=200, window=8, index_bound=index_bound)
    # disagreeing before the first partial position is a plain False
    assert window_verify(1, COUNT_UP, cfg) is False   # 0, 0: differs at 1
    assert window_verify(2, COUNT_UP, cfg) is False   # 1: differs at 0
    assert window_verify(7, COUNT_UP, cfg) is False   # diverges at 0
    # agreeing up to it leaves the oracle without a target: an error
    with pytest.raises(ValueError, match="partial at 3"):
        window_verify(0, COUNT_UP, cfg)


# ---------------------------------------------------------------------------
# the universe table against plain evaluate loops

SMALL = OracleConfig(cap=60, window=5, index_bound=40)
ABOVE = 12   # indices past index_bound that the scans also see
DESCRIPTORS = (
    ZERO, ONE_HAT, IDENTITY, SUCC, PLUS_TWO,
    Literal((0,), Constant(1)),
    Literal((1, 0), Periodic((0, 1))),
    Literal((5,), Constant(6)),        # nothing in the universe computes it
    Literal((0, 0, 0, 0, 0), Constant(1)),   # the zero rows miss it at 5 only
    Generated(55, 40),
    Generated(65, 40),
)


def _plain_row(i, cfg):
    outs = [evaluate(i, n, cfg.cap) for n in range(cfg.window + 1)]
    return tuple(o.value if isinstance(o, Halted) else None for o in outs)


def _plain_compatible(i, j, cfg):
    for n in range(cfg.window + 1):
        a, b = evaluate(i, n, cfg.cap), evaluate(j, n, cfg.cap)
        if isinstance(a, Halted) and isinstance(b, Halted) and a.value != b.value:
            return False
    return True


def _plain_in_R(k, n, cfg):
    for i in range(min(n, cfg.index_bound + 1)):
        out = evaluate(i, k, cfg.cap)
        if isinstance(out, Halted) and out.value == n:
            return False
    return True


def _plain_search_R(k, lower, cfg, limit):
    for n in range(lower, limit + 1):
        if _plain_in_R(k, n, cfg):
            return n
    return None


def _queries(cfg):
    """(query, answer) pairs for every scan the table serves; the answers
    come from plain loops over evaluate."""
    bound, window = cfg.index_bound, cfg.window
    rows = {i: _plain_row(i, cfg) for i in range(bound + ABOVE + 1)}
    lcfg = LearnerConfig(cfg, stability_window=2, max_steps=50)
    pcfg = ProblemConfig(cfg, ceiling=50)
    g = make_g()
    out = []
    for d in DESCRIPTORS:
        want = tuple(descriptor_get(d, n) for n in range(window + 1))
        hits = [i for i in range(bound + 1) if rows[i] == want]
        out.append((partial(min_index, d, cfg), hits[0] if hits else None))
        out.append((partial(g.enumerate_answers, d, pcfg), frozenset(hits)))
        stages = tuple(
            tuple(i for i in range(bound + 1) if rows[i][:t + 1] == want[:t + 1])
            for t in range(window + 1))
        out.append((partial(kol_liminf_enumerator, d, lcfg), stages))
        for i in range(0, bound + ABOVE + 1, 3):
            out.append((partial(window_verify, i, d, cfg), rows[i] == want))
    for i in range(0, bound + ABOVE + 1, 4):
        for j in range(0, bound + ABOVE + 1, 5):
            out.append((partial(compatible, i, j, cfg), _plain_compatible(i, j, cfg)))
    # positions inside the window read the table, those above it do not
    for k in (0, 3, window, window + 1, window + 4):
        for n in range(0, bound + ABOVE + 1, 3):
            out.append((partial(in_R, k, n, cfg), _plain_in_R(k, n, cfg)))
        for lower in (0, 1, 7):
            for limit in (lower, lower + bound):
                out.append((partial(search_R, k, lower, cfg, limit),
                            _plain_search_R(k, lower, cfg, limit)))
    return out


def test_universe_table_matches_plain_loops():
    queries = _queries(SMALL)
    assert any(answer is None for _, answer in queries)
    assert any(isinstance(answer, frozenset) and len(answer) > 1
               for _, answer in queries)
    assert {answer for q, answer in queries if q.func is in_R} == {True, False}
    assert None in {answer for q, answer in queries if q.func is search_R}

    def run(seed):
        order = list(queries)
        random.Random(seed).shuffle(order)
        return [(q, q(), answer) for q, answer in order]

    clear_oracle_cache()
    clear_eval_cache()
    first = run(1)
    second = run(2)          # on the table the first order filled
    clear_oracle_cache()
    clear_eval_cache()
    cold = run(2)
    alone = []               # each query on a table of its own
    for q, answer in queries:
        clear_oracle_cache()
        alone.append((q, q(), answer))
    for q, got, answer in first + second + cold + alone:
        assert got == answer, (q, got, answer)


def test_min_index_starts_no_row_past_the_least_index():
    cfg = OracleConfig(cap=10_000, window=32, index_bound=2000)
    clear_oracle_cache()
    assert min_index(ZERO, cfg) == 1
    assert len(universe(cfg).rows) == 2
