"""Oracle tests.

Frozen answers below were derived by hand from the numbering: index 0 is
the empty program (identity), 1 is [Z 0], 2 is [S 0], 6 is [Z 0, S 0],
9 is [S 0, S 0], 7 is the self-loop [J 0 0 0].  The R-set facts follow
by enumerating the candidate indices i < n by hand.
"""

import random
from functools import partial
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from godellab import oracles
from godellab.corpus import gen_total_programs
from godellab.learners import LearnerConfig, kol_liminf_enumerator
from godellab.numbering import Halted, clear_eval_cache, decode, evaluate
from godellab.oracles import (
    OracleConfig,
    clear_oracle_cache,
    compatible,
    in_R,
    min_index,
    search_R,
    universe,
    verified_indices,
    window_verify,
)
from godellab.problems import ProblemConfig, make_g, problem_registry
from godellab.reductions import make_family_g_spec
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


@pytest.mark.parametrize("query", [
    verified_indices,
    lambda d, cfg: make_g().enumerate_answers(d, ProblemConfig(cfg, ceiling=50)),
], ids=["verified_indices", "g_answers"])
def test_verified_indices_and_g_answers_reject_partial_descriptor(query):
    # partial from 0 (index 7 never halts), and partial from 3 after
    # agreeing with the identity (COUNT_UP below)
    cfg = OracleConfig(cap=200, window=8, index_bound=120)
    with pytest.raises(ValueError, match="partial at 0"):
        query(Generated(7, 10), cfg)
    with pytest.raises(ValueError, match="partial at 3"):
        query(COUNT_UP, cfg)


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


@pytest.mark.parametrize("after_clear", ["a", "b"])
def test_equal_configs_share_one_table_until_cleared(after_clear, monkeypatch):
    built = []

    class Counted(oracles.Universe):
        def __init__(self, cfg):
            super().__init__(cfg)
            built.append(self)

    monkeypatch.setattr(oracles, "Universe", Counted)
    clear_oracle_cache()
    cfgs = {"a": OracleConfig(cap=60, window=5, index_bound=40),
            "b": OracleConfig(cap=60, window=5, index_bound=40),
            "c": OracleConfig(cap=61, window=5, index_bound=40)}
    assert cfgs["a"] == cfgs["b"] and cfgs["a"] is not cfgs["b"]
    # a, c, a, then b: b comes right after a, equal to it but another object
    got = [universe(cfgs[k]) for k in "acab"]
    assert len(built) == 2
    a_table, c_table = built
    assert got == [a_table, c_table, a_table, a_table]
    assert a_table.cfg == cfgs["a"] and c_table.cfg == cfgs["c"]
    assert min_index(ZERO, cfgs["b"]) == 1
    # b was looked up last, so a slot left set by the clear would serve
    # the old table to b
    clear_oracle_cache()
    other = "b" if after_clear == "a" else "a"
    assert min_index(ZERO, cfgs[after_clear]) == 1
    assert len(built) == 3
    fresh = built[2]
    assert universe(cfgs[after_clear]) is fresh
    assert universe(cfgs[other]) is fresh
    assert len(built) == 3
    assert len(fresh.rows) == 2     # filled by the query after the clear


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
OTHER = OracleConfig(cap=30, window=4, index_bound=30)   # unequal in every field
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

    def shuffled(seed, pairs=queries):
        order = list(pairs)
        random.Random(seed).shuffle(order)
        return order

    def run(order):
        return [(q, q(), answer) for q, answer in order]

    # the same queries through an equal but distinct config, and others
    # through an unequal one, taken in turn: each query looks up another
    # config than the one before it
    twin = OracleConfig(SMALL.cap, SMALL.window, SMALL.index_bound)
    assert twin == SMALL and twin is not SMALL
    orders = [shuffled(3, pairs)
              for pairs in (queries, _queries(twin), _queries(OTHER))]
    interleaved = [pair for turn in zip_longest(*orders) for pair in turn
                   if pair is not None]

    clear_oracle_cache()
    clear_eval_cache()
    first = run(shuffled(1))
    second = run(shuffled(2))    # on the table the first order filled
    clear_oracle_cache()
    clear_eval_cache()
    cold = run(shuffled(2))
    alone = []               # each query on a table of its own
    for q, answer in queries:
        clear_oracle_cache()
        alone.append((q, q(), answer))
    clear_oracle_cache()
    clear_eval_cache()
    mixed = run(interleaved)
    for q, got, answer in first + second + cold + alone + mixed:
        assert got == answer, (q, got, answer)


def test_min_index_starts_no_row_past_the_least_index():
    cfg = OracleConfig(cap=10_000, window=32, index_bound=2000)
    clear_oracle_cache()
    assert min_index(ZERO, cfg) == 1
    assert len(universe(cfg).rows) == 2


# cells read before a compatible query: none, position 0 only, all but the
# last position, or the whole row
ROW_STATES = {"cold": None, "head": 0, "most": SMALL.window - 1,
              "whole": SMALL.window}


@pytest.mark.parametrize("state_i", ROW_STATES)
@pytest.mark.parametrize("state_j", ROW_STATES)
def test_compatible_on_whole_and_partly_read_rows(state_i, state_j):
    # 7 never halts, so its whole row is all None; 0 and 1 first differ at
    # position 1, which a row read only at 0 does not hold; indices past
    # the index bound are never kept, and Programs are not table indices
    bound = SMALL.index_bound
    indices = sorted({0, 1, 2, 3, 6, 7, 9, *range(0, bound + ABOVE + 1, 5)})
    pairs = [(i, j) for i in indices for j in indices]
    pairs += [(decode(i), j) for i, j in pairs[::7]]
    pairs += [(i, decode(j)) for i, j in pairs[3::11]]
    for i, j in pairs:
        if i == j and state_i != state_j:
            continue     # one row cannot be in two states
        clear_oracle_cache()
        table = universe(SMALL)
        for k, state in ((i, state_i), (j, state_j)):
            upto = ROW_STATES[state]
            if upto is not None:
                table.value(k, upto)
            kept = isinstance(k, int) and k <= bound
            assert (table.whole(k) is not None) == (kept and state == "whole")
        assert compatible(i, j, SMALL) == _plain_compatible(i, j, SMALL), (i, j)


def _plain_prefix(d, cfg):
    values = []
    for n in range(cfg.window + 1):
        v = descriptor_get(d, n)
        if v is None:
            break
        values.append(v)
    return tuple(values)


def test_prefix_slot_serves_only_the_descriptor_it_holds(monkeypatch):
    # equal but distinct descriptors, Literals and Generateds, total and
    # partial ones, read in turn through two tables of different windows
    twins = [ZERO, Literal((), Constant(0)), SUCC, Generated(2, 2),
             COUNT_UP, ONE_HAT, Generated(193853, 7), IDENTITY]
    assert twins[0] == twins[1] and twins[0] is not twins[1]
    assert twins[2] == twins[3] and twins[2] is not twins[3]
    clear_oracle_cache()
    tables = [universe(SMALL), universe(OTHER)]
    for d in twins + twins[::-1]:
        for table in tables:
            got = table.prefix(d)
            assert got == table.prefix(d) == _plain_prefix(d, table.cfg), d
    # a new table after the clear reads every descriptor again
    reads = []
    monkeypatch.setattr(oracles, "descriptor_get",
                        lambda d, n: reads.append(d) or descriptor_get(d, n))
    last = twins[-1]
    assert tables[1].prefix(last) == _plain_prefix(last, OTHER) and not reads
    clear_oracle_cache()
    fresh = universe(OTHER)
    assert fresh is not tables[1] and not fresh.prefixes
    assert fresh.prefix(last) == _plain_prefix(last, OTHER)
    assert len(reads) == OTHER.window + 1


# ---------------------------------------------------------------------------
# one answer set per row of values

SWEEP = OracleConfig(cap=400, window=8, index_bound=120)


def _sweep_corpus(per_function=4, draws=200, seed=1):
    """The benchmark sweep's stratified corpus: the first generated
    descriptors of each total function."""
    picked, seen = [], {}
    for e in gen_total_programs(draws, seed):
        d = e.descriptor
        if isinstance(d, Generated) and seen.get(d.index, 0) < per_function:
            seen[d.index] = seen.get(d.index, 0) + 1
            picked.append(d)
    assert len(seen) > 3 and set(seen.values()) == {per_function}
    return picked


@pytest.mark.parametrize("cfg", [SWEEP, SMALL], ids=["sweep", "small"])
def test_g_answers_match_plain_loops_and_are_shared(cfg):
    pcfg = ProblemConfig(cfg, ceiling=80)
    specs = problem_registry()
    g, g_geq = specs["g"], specs["g_geq"]
    rows = [_plain_row(i, cfg) for i in range(cfg.index_bound + 1)]
    corpus = _sweep_corpus()
    sizes = set()
    for d in corpus:
        want = tuple(descriptor_get(d, n) for n in range(cfg.window + 1))
        assert None not in want
        hits = frozenset(i for i, row in enumerate(rows) if row == want)
        sizes.add(len(hits))
        # a cold table, its rows started lazily by a least-index query
        clear_oracle_cache()
        least = min_index(d, cfg)
        assert least == (min(hits) if hits else None)
        shared = g.enumerate_answers(d, pcfg)
        assert type(shared) is frozenset and shared == hits, d
        twin = Generated(d.index, d.budget)
        assert twin == d and twin is not d
        assert verified_indices(twin, cfg) is shared
        for m in range(pcfg.ceiling + 1):
            in_domain = g_geq.domain_check((d, m), pcfg)
            assert in_domain == (least is not None and m >= least), (d, m)
            if in_domain:
                assert g_geq.enumerate_answers((d, m), pcfg) is shared
                assert g_geq.enumerate_answers((twin, m), pcfg) is shared
    # the second config also meets empty answer sets, the first does not
    assert max(sizes) > 1 and (0 in sizes) == (cfg is SMALL)
    # warm: descriptors of one function share their values' set
    clear_oracle_cache()
    by_values = {}
    for d in corpus:
        got = g.enumerate_answers(d, pcfg)
        assert by_values.setdefault(universe(cfg).prefix(d), got) is got
    assert universe(cfg).answers == by_values


def test_partial_descriptors_store_no_answer_set():
    cfg = OracleConfig(cap=200, window=8, index_bound=120)
    clear_oracle_cache()
    table = universe(cfg)
    for d in (Generated(7, 10), COUNT_UP):
        for query in (verified_indices,
                      lambda d, cfg: make_g().enumerate_answers(
                          d, ProblemConfig(cfg, ceiling=50))):
            with pytest.raises(ValueError, match="partial at"):
                query(d, cfg)
    assert not table.answers and not table.rows


def test_clear_oracle_cache_drops_the_answer_sets():
    clear_oracle_cache()
    old = verified_indices(ZERO, SMALL)
    old_table = universe(SMALL)
    assert old_table.answers == {universe(SMALL).prefix(ZERO): old}
    clear_oracle_cache()
    fresh = universe(SMALL)
    assert fresh is not old_table and not fresh.answers
    # a config unequal to SMALL, whose answer would be another set
    assert verified_indices(ZERO, OTHER) == frozenset(
        i for i in range(OTHER.index_bound + 1)
        if _plain_row(i, OTHER) == (0,) * (OTHER.window + 1))
    new = verified_indices(ZERO, SMALL)
    assert new == old and new is not old
    assert fresh.answers == {fresh.prefix(ZERO): new}


def test_family_g_adds_its_own_index_to_a_copy():
    # 55 lies above this universe, so the family answer adds it
    d = Generated(55, 40)
    pcfg = ProblemConfig(SMALL, ceiling=50)
    clear_oracle_cache()
    shared = verified_indices(d, SMALL)
    assert d.index not in shared and d.index > SMALL.index_bound
    before = set(shared)
    family = make_family_g_spec().enumerate_answers(d, pcfg)
    assert family == shared | {d.index}
    assert verified_indices(d, SMALL) is shared and shared == before


# ---------------------------------------------------------------------------
# known cells


def _plain_value(i, n, cfg):
    """phi_i(n) under the cap from evaluate, or the error it raises."""
    try:
        out = evaluate(i, n, cfg.cap)
    except ValueError as e:
        return ValueError, str(e)
    return out.value if isinstance(out, Halted) else None


def _table_value(table, i, n):
    try:
        return table.value(i, n)
    except ValueError as e:
        return ValueError, str(e)


def test_value_reads_known_cells_and_only_those():
    cfg = SMALL
    clear_oracle_cache()
    table = universe(cfg)
    for i in range(6):
        table.value(i, cfg.window)    # rows 0..5 whole
    table.value(6, 1)                 # row 6 read at 0 and 1 only
    assert len(table.rows) == 7 and len(table.rows[6]) == 2
    cells = [(-1, 0), (-1, 1), (-2, cfg.window),   # rows[-1] is row 6
             (6, 1), (6, 2), (6, cfg.window),      # past row 6's cells
             (3, cfg.window + 1), (3, cfg.window + 7), (3, -1),
             (cfg.index_bound + 1, 0), (cfg.index_bound + 9, 2),
             (True, 1), (False, 0), (9, 0), (cfg.index_bound, cfg.window)]
    cells += [(i, n) for i in range(7) for n in range(cfg.window + 1)]
    for i, n in cells + cells[::-1]:
        want = _plain_value(i, n, cfg)
        assert _table_value(table, i, n) == want, (i, n)
        assert _table_value(table, decode(abs(int(i))), n) == \
            _plain_value(decode(abs(int(i))), n, cfg), (i, n)
    # the cells outside the table were not stored
    assert len(table.rows) == cfg.index_bound + 1
    assert all(len(known) <= cfg.window + 1 for known in table.rows)
