"""Problem-spec tests.

The window oracle (tests/literal_reference.py): a Literal's behavior is
fully visible in a window covering its prefix plus a few tail periods,
so answer sets recomputed naively from such a window are exact and
independent of the closed-form analyses the implementation uses.
"""

from godellab.numbering import decode
from godellab.oracles import OracleConfig, clear_oracle_cache, min_index
from godellab.problems import (
    ProblemConfig,
    _least,
    make_b,
    make_cn,
    make_g,
    make_inf,
    make_kol,
    make_kol_geq,
    make_lim_n,
    make_lpo,
    problem_registry,
)
from godellab.spaces import Constant, Generated, Literal, Periodic
from literal_reference import span, window

CFG = ProblemConfig(OracleConfig(cap=200, window=12, index_bound=60), ceiling=24)

ZERO = Literal((), Constant(0))
ONE_HAT = Literal((), Constant(1))


# ---------------------------------------------------------------------------
# frozen examples per problem


def test_lpo_frozen():
    lpo = make_lpo()
    assert lpo.enumerate_answers(ZERO, CFG) == {1}
    assert lpo.enumerate_answers(Literal((0, 0, 1), Constant(0)), CFG) == {0}
    assert lpo.verify(ZERO, 1, CFG) and not lpo.verify(ZERO, 0, CFG)


def test_lim_frozen():
    lim = make_lim_n()
    assert lim.enumerate_answers(Literal((5, 5, 3), Constant(3)), CFG) == {3}
    assert not lim.domain_check(Literal((), Periodic((0, 1))), CFG)
    assert lim.domain_check(Literal((7,), Periodic((4, 4))), CFG)


def test_b_frozen():
    b = make_b()
    inst = Literal((1, 3), Constant(2))
    assert b.verify(inst, 3, CFG)
    assert not b.verify(inst, 2, CFG)
    assert b.enumerate_answers(inst, CFG) == frozenset(range(3, CFG.ceiling + 1))


def test_inf_frozen():
    # inf asks for the least value never enumerated
    assert make_inf().enumerate_answers(Literal((3, 1), Constant(4)), CFG) == {0}


def test_cn_frozen():
    cn = make_cn()
    inst = Literal((0, 1), Constant(1))
    answers = cn.enumerate_answers(inst, CFG)
    assert answers == frozenset(range(2, CFG.ceiling + 1))
    assert cn.verify(inst, 2, CFG) and not cn.verify(inst, 1, CFG)


def test_cluster_family_frozen():
    reg = problem_registry()
    inst = Literal((9,), Periodic((1, 2)))
    assert reg["liminf_n"].enumerate_answers(inst, CFG) == {1}


def test_g_family_frozen():
    g, kol, kol_geq = make_g(), make_kol(), make_kol_geq()
    assert g.verify(ZERO, 1, CFG) and not g.verify(ZERO, 0, CFG)
    assert kol.enumerate_answers(Generated(0, 1), CFG) == {0}
    assert kol.verify(ZERO, 1, CFG) and not kol.verify(ZERO, 3, CFG)
    assert kol_geq.verify(ZERO, 1, CFG) and not kol_geq.verify(ZERO, 0, CFG)
    assert min(g.enumerate_answers(ZERO, CFG)) == 1


def test_g_domain_rejects_partial_and_unreachable():
    g = make_g()
    assert not g.domain_check(Generated(7, 10), CFG)
    tiny = ProblemConfig(OracleConfig(cap=50, window=4, index_bound=3), ceiling=8)
    assert not g.domain_check(Literal((5,), Constant(6)), tiny)
    assert g.domain_check(ZERO, CFG)


def test_g_geq_domain_enforces_promise():
    g_geq = problem_registry()["g_geq"]
    assert g_geq.domain_check((ZERO, 1), CFG)
    assert g_geq.domain_check((ZERO, 10), CFG)
    assert not g_geq.domain_check((ZERO, 0), CFG)
    # off shape, partial, not a sequence descriptor, or outside the universe
    for inst in (ZERO, (ZERO,), (ZERO, 1, 2), (ZERO, "1"),
                 (Generated(7, 10), 50), (Constant(0), 50)):
        assert not g_geq.domain_check(inst, CFG), inst
    tiny = ProblemConfig(OracleConfig(cap=50, window=4, index_bound=3), ceiling=8)
    assert not g_geq.domain_check((Literal((5,), Constant(6)), 3), tiny)
    assert g_geq.verify((ZERO, 1), 1, CFG)


# ---------------------------------------------------------------------------
# window-oracle agreement on randomized-ish literal pools


_POOL = [
    ZERO,
    ONE_HAT,
    Literal((0, 1), Constant(2)),
    Literal((), Periodic((1, 2))),
    Literal((9,), Periodic((1, 2))),
    Literal((3, 1), Constant(4)),
    Literal((4, 2), Constant(9)),
    Literal((0, 0, 1), Constant(0)),
    Literal((2,), Periodic((0, 3, 0))),
]


def test_first_order_answers_match_window_oracle():
    reg = problem_registry()
    for d in _POOL:
        seq = window(d, span(d))
        tail = seq[len(d.prefix):]
        def answers(name):
            return reg[name].enumerate_answers(d, CFG)

        assert answers("lpo") == {1 if all(v == 0 for v in seq) else 0}
        assert answers("b") == set(range(max(seq), CFG.ceiling + 1))
        absent = next(n for n in range(max(seq) + 2) if n not in set(seq))
        assert answers("inf") == {absent}
        assert answers("cn") == set(range(CFG.ceiling + 1)) - set(seq)
        assert min(answers("cn")) == absent
        assert answers("liminf_n") == {min(tail)}
        if len(set(tail)) == 1:
            assert answers("lim_n") == {tail[0]}
        else:
            assert not reg["lim_n"].domain_check(d, CFG)


# ---------------------------------------------------------------------------
# universal spec invariants


def _instances_for(name):
    if name == "g_geq":
        return [(ZERO, 1), (ONE_HAT, 8), (Generated(0, 1), 0), (Generated(2, 2), 5)]
    if name in ("g", "kol", "kol_geq"):
        return [ZERO, ONE_HAT, Generated(0, 1), Generated(2, 2), Generated(9, 3)]
    return _POOL


def _scan_bound(name):
    return CFG.oracle.index_bound if name in ("g", "g_geq", "kol") else CFG.ceiling


def test_every_problem_meets_the_spec_invariants():
    for name, spec in problem_registry().items():
        checked = 0
        for inst in _instances_for(name):
            if not spec.domain_check(inst, CFG):
                continue
            checked += 1
            # an instance in the domain has a solution under the bounds
            answers = spec.enumerate_answers(inst, CFG)
            assert answers, (name, inst)
            for a in answers:
                assert spec.verify(inst, a, CFG), (name, inst, a)
            for a in range(_scan_bound(name) + 1):
                if spec.verify(inst, a, CFG):
                    assert a in answers, (name, inst, a)
        assert checked, f"no in-domain instances exercised for {name}"


def test_every_answer_set_is_a_frozenset():
    # G and G_>= hand every caller one shared set, which only an
    # immutable set makes safe
    for name, spec in problem_registry().items():
        inst = next(i for i in _instances_for(name) if spec.domain_check(i, CFG))
        assert type(spec.enumerate_answers(inst, CFG)) is frozenset, name


def test_least_is_min_index_on_total_descriptors_and_none_elsewhere():
    clear_oracle_cache()
    total = _instances_for("g") + [Literal((0, 0), Constant(0)),
                                   Literal((3,), Periodic((0, 1)))]
    for d in total:
        assert _least(d, CFG) == min_index(d, CFG.oracle), d
    assert any(_least(d, CFG) is not None for d in total)
    tiny = ProblemConfig(OracleConfig(cap=50, window=4, index_bound=3), ceiling=8)
    assert _least(Literal((5,), Constant(6)), tiny) is None   # no index fits
    # partial at the last window position only: 0, 1, 2 and then nothing
    last = ProblemConfig(OracleConfig(cap=200, window=3, index_bound=60), ceiling=8)
    assert _least(Generated(193853, 7), last) is None
    # partial from 0 (7 never halts) or from 3; a tail, a tuple, a Program
    for d in (Generated(7, 10), Generated(193853, 7), Periodic((0, 1)),
              (ZERO, 3), decode(1)):
        assert _least(d, CFG) is None, d


def test_registry_is_complete_and_consistently_named():
    reg = problem_registry()
    assert sorted(reg) == [
        "b", "cn", "g", "g_geq", "inf", "kol", "kol_geq", "lim_n",
        "liminf_n", "lpo",
    ]
    for name, spec in reg.items():
        assert spec.name == name
