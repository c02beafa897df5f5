"""Reduction harness and catalog tests.

Oracle facts reused from the numbering tests, derived by enumerating
all programs of length at most two by hand: the least index of the
constant-0 function is 1 ([Z 0]), of the successor 2 ([S 0]), of the
constant-1 function 6 ([Z 0, S 0]), of the identity 0 ([]).  The least
constant-2 index is 55, found by oracle scan and pinned in the
numbering suite.

Mutant policy: each catalog entry carries the mutation modes its corpus
is expected to detect.  The modes differ per entry because some
verifiers are inequality-shaped: offset_h and drop_k pass b_kolgeq and
kolgeq_b honestly (a bound plus one is still a bound), so those entries
are paired with constant_h and collapse_k instead.
"""

import json
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godellab import numbering, reductions
from godellab.numbering import (
    clear_eval_cache,
    encode,
    parse_program,
    precompose_affine,
    stride_tuple_budget,
    stride_tuple_program,
)
from godellab.oracles import OracleConfig, min_index
from godellab.problems import ProblemConfig, ProblemSpec, make_cn, make_lim_n
from godellab.reductions import (
    FailureWitness,
    ReductionAbort,
    ReductionPair,
    catalog_b_kolgeq,
    catalog_cn_limn,
    catalog_inf_cn,
    catalog_liminf_minhat,
    catalog_limn_g,
    catalog_lpo_kol,
    check_reduction,
    make_family_g_spec,
    make_ghat_spec,
    make_gstar_spec,
    mutate,
    reduction_registry,
    report_to_json,
)
from godellab.spaces import (
    Constant,
    Generated,
    Literal,
    Periodic,
    literal_liminf,
    literal_limit,
    literal_value,
    literal_values,
)

CFG = ProblemConfig(OracleConfig(cap=200, window=8, index_bound=120), ceiling=60)

ZERO_HAT = Literal((), Constant(0))
ONE_HAT = Literal((), Constant(1))
TWO_HAT = Literal((), Constant(2))


# component bodies read the cell index from R2 and write R0
ZERO_BODY = parse_program("Z 0")
IDENT_BODY = parse_program("T 2 0")
SUCC_BODY = parse_program("T 2 0\nS 0")

_PAIR_BUDGET = stride_tuple_budget(2, 2 * CFG.oracle.window + 1, 2) + 2
TUP_ZERO_ID = Generated(encode(stride_tuple_program([ZERO_BODY, IDENT_BODY])),
                        _PAIR_BUDGET)
TUP_ID_SUCC = Generated(encode(stride_tuple_program([IDENT_BODY, SUCC_BODY])),
                        _PAIR_BUDGET)
TUP_SUCC = Generated(encode(stride_tuple_program([SUCC_BODY])),
                     stride_tuple_budget(1, CFG.oracle.window, 2) + 2)


def _corpus(name):
    return {
        "cn_limn": [Literal((0,), Constant(2)), Literal((1, 0), Constant(3))],
        "limn_cn": [Literal((5, 5), Constant(1)), ZERO_HAT],
        "inf_cn": [Literal((3, 1), Constant(4)), Literal((0, 1), Constant(2))],
        "liminf_minhat": [Literal((7,), Periodic((2, 5))), Literal((), Constant(4))],
        "b_kolgeq": [ZERO_HAT, ONE_HAT, TWO_HAT],
        "limn_g": [ZERO_HAT, Literal((1,), Constant(1))],
        "kol_limn": [ZERO_HAT, Generated(0, 1), Generated(2, 2)],
        "kolgeq_b": [ZERO_HAT, Generated(0, 1), Generated(2, 2)],
        "lpo_kol": [ZERO_HAT, Literal((1, 0), Constant(0))],
        "ghat_g": [(TUP_ZERO_ID, 0), (TUP_ZERO_ID, 1), (TUP_ID_SUCC, 1)],
        "gstar_g": [(2, TUP_ZERO_ID, 0), (2, TUP_ID_SUCC, 1), (1, TUP_SUCC, 0)],
    }[name]


# ---------------------------------------------------------------------------
# harness


def test_identity_reduction_passes():
    cn = make_cn()
    r = ReductionPair("cn_cn", lambda x: x, lambda x, a: a)
    rep = check_reduction(cn, cn, r, [Literal((0, 2), Constant(4))], CFG)
    assert rep.passed
    assert rep.witnesses == ()
    assert all(rec.verified for rec in rep.records)


def test_constant_h_fails_when_answers_are_pinned():
    cn = make_cn()
    r = mutate(ReductionPair("cn_cn", lambda x: x, lambda x, a: a), "constant_h")
    assert r.name == "cn_cn[constant_h]"
    rep = check_reduction(cn, cn, r, [Literal((0, 2), Constant(4))], CFG)
    assert not rep.passed
    kinds = {w.kind for w in rep.witnesses}
    assert kinds == {"verification"}
    # every enumerated answer was tried before the verdict
    assert rep.records[0].tried == tuple(sorted(cn.enumerate_answers(
        Literal((0, 2), Constant(4)), CFG)))


def test_a_repeated_f_answer_is_verified_once_per_instance():
    # H sends the answers of an instance to two f-answers, 0 and 1; each
    # is verified once per instance, the repeated instance included, yet
    # every answer is tried and each failing one leaves its own witness
    cn = make_cn()
    calls = []

    def verify(x, b, cfg):
        calls.append((x, b))
        return cn.verify(x, b, cfg)

    counted = ProblemSpec("cn", cn.domain_check, verify, cn.enumerate_answers)
    corpus = [Literal((0, 2), Constant(4)), Literal((1,), Constant(1)),
              Literal((0, 2), Constant(4))]
    rep = check_reduction(counted, cn, ReductionPair("parity", lambda x: x,
                                                     lambda x, a: a % 2),
                          corpus, CFG)
    answers = [sorted(cn.enumerate_answers(x, CFG)) for x in corpus]
    assert calls == [(x, b) for x, tried in zip(corpus, answers)
                     for b in dict.fromkeys(a % 2 for a in tried)]
    assert [rec.tried for rec in rep.records] == [tuple(t) for t in answers]
    assert rep.witnesses == tuple(
        FailureWitness(xid, "verification", a, a % 2)
        for xid, (x, tried) in enumerate(zip(corpus, answers))
        for a in tried if not cn.verify(x, a % 2, CFG))
    assert [rec.verified for rec in rep.records] == [False, False, False]


def test_domain_violations_leave_witnesses():
    cn = make_cn()
    lim = make_lim_n()
    r = ReductionPair("junk", lambda x: object(), lambda x, a: a)
    rep = check_reduction(cn, lim, r, [Literal((0,), Constant(1)), object()], CFG)
    assert not rep.passed
    assert [w.kind for w in rep.witnesses] == ["g_domain", "f_domain"]
    assert rep.records[0].tried == ()


def test_construction_abort_is_a_witness_not_a_crash():
    lim = make_lim_n()

    def K(x):
        raise ReductionAbort("out of budget")

    rep = check_reduction(lim, lim, ReductionPair("stuck", K, lambda x, a: a),
                          [ZERO_HAT], CFG)
    assert not rep.passed
    w = rep.witnesses[0]
    assert w.kind == "construction" and w.note == "out of budget"


def test_report_json_shape():
    cn = make_cn()
    r = ReductionPair("cn_cn", lambda x: x, lambda x, a: a)
    rep = check_reduction(cn, cn, r, [Literal((0,), Constant(1))], CFG)
    payload = json.loads(report_to_json(rep, "smoke"))
    assert payload["reduction"] == "cn_cn"
    assert payload["corpus"] == "smoke"
    assert payload["pass"] is True
    assert payload["instances"] == [{"id": 0, "pass": True, "witnesses": []}]


def test_report_json_clamps_oversized_indices():
    rep_witness = FailureWitness(0, "verification", inner=2, outer=1 << 9000)
    from godellab.reductions import InstanceRecord, ReductionReport

    rep = ReductionReport("big", (InstanceRecord(0, (2,), False),),
                          (rep_witness,), False)
    payload = json.loads(report_to_json(rep, "clamp"))
    assert payload["instances"][0]["witnesses"][0]["outer"] == "#bits=9001"


# ---------------------------------------------------------------------------
# frozen catalog examples


def test_cn_limn_converges_to_least_absent():
    r = catalog_cn_limn()
    x = Literal((0,), Constant(2))
    y = r.K(x)
    assert literal_limit(y) == 1
    assert y.prefix == (1, 1)


def test_liminf_minhat_images():
    r = catalog_liminf_minhat()
    assert r.K(Literal((7,), Periodic((2, 5)))) == Literal((2, 2), Constant(2))
    assert r.K(Literal((), Constant(4))) == Literal((4,), Constant(4))


def test_inf_cn_scans_below_the_answer():
    r = catalog_inf_cn()
    x = Literal((3, 1), Constant(4))
    for a in (0, 2, 5, 9):
        assert r.H(x, a) == 0
    x = Literal((0, 1), Constant(2))
    assert r.H(x, 3) == 3 and r.H(x, 7) == 3


def test_b_kolgeq_images_bound_the_sup():
    r = catalog_b_kolgeq(CFG)
    for inst, least in ((ZERO_HAT, 1), (ONE_HAT, 6), (TWO_HAT, 55)):
        y = r.K(inst)
        assert min_index(y, CFG.oracle) == least
        assert least >= max(literal_values(inst))


def test_b_kolgeq_rejects_non_monotone_instances():
    r = catalog_b_kolgeq(CFG)
    with pytest.raises(ReductionAbort):
        r.K(Literal((3, 1), Constant(1)))


def test_limn_g_readout_is_the_limit():
    r = catalog_limn_g(CFG)
    for inst in _corpus("limn_g"):
        y = r.K(inst)
        lim = literal_limit(inst)
        assert literal_limit(y) == lim
        for i in range(len(y.prefix), len(y.prefix) + 4):
            assert literal_value(y, i) == lim
        least = min_index(y, CFG.oracle)
        assert least is not None and r.H(inst, least) == lim


def test_each_limn_g_pair_keeps_its_own_images(monkeypatch):
    # H reads the image K keeps for its pair, so it searches R for no
    # answer; a pair from a second registry builds the image again
    searches = []
    real = reductions.search_R

    def counting(*args):
        searches.append(args)
        return real(*args)

    monkeypatch.setattr(reductions, "search_R", counting)
    first, second = (reduction_registry(CFG)["limn_g"].pair for _ in range(2))
    x = Literal((1,), Constant(1))
    y = first.K(x)
    built = len(searches)
    assert built == len(x.prefix) + 1
    assert [first.H(x, i) for i in range(len(y.prefix) + 2)] == list(y.prefix) + [1, 1]
    assert mutate(first, "drop_k").H(x, 0) == y.prefix[0]
    assert len(searches) == built
    assert second.K(x) == y
    assert len(searches) == 2 * built


def test_lpo_kol_collapses_then_compares():
    r = catalog_lpo_kol(CFG)
    assert r.K(ZERO_HAT) == ZERO_HAT
    assert r.K(Literal((0, 3), Constant(2))) == ONE_HAT
    assert r.H(ZERO_HAT, 1) == 1
    assert r.H(Literal((0, 3), Constant(2)), 6) == 0


def test_ghat_extraction_round_trip():
    spec = make_ghat_spec()
    for which, want in ((0, [0, 0, 0, 0, 0]), (1, [0, 1, 2, 3])):
        x = (TUP_ZERO_ID, which)
        assert spec.domain_check(x, CFG)
        # the extracted component's index lies past the bounded universe
        a = operator.index(precompose_affine(TUP_ZERO_ID.index, 2, which))
        assert a > CFG.oracle.index_bound
        assert spec.verify(x, a, CFG)


def test_gstar_width_one_is_the_identity_embedding():
    # precomposition with mul=1, add=0 emits no macro at all
    x = (1, TUP_SUCC, 0)
    assert operator.index(precompose_affine(TUP_SUCC.index, 1, 0)) == TUP_SUCC.index
    spec = make_gstar_spec()
    assert spec.verify(x, TUP_SUCC.index, CFG)


@pytest.mark.parametrize("make_spec, x, least", [
    (make_ghat_spec, (TUP_ZERO_ID, 0), 1),
    (make_ghat_spec, (TUP_ZERO_ID, 1), 0),
    (make_gstar_spec, (1, TUP_SUCC, 0), 2),
], ids=["ghat-zero", "ghat-ident", "gstar-succ"])
def test_component_answers_are_verified_indices(make_spec, x, least):
    # the indices of the bounded universe that compute the component; no
    # catalog reduction has ghat or gstar as its target, so only this
    # test enumerates them
    spec = make_spec()
    answers = spec.enumerate_answers(x, CFG)
    assert min(answers) == least
    assert all(spec.verify(x, a, CFG) for a in answers)
    # decode(7) is J 0 0 0, which halts nowhere
    assert 7 not in answers and not spec.verify(x, 7, CFG)


def test_family_g_answers_include_the_generating_index():
    spec = make_family_g_spec()
    answers = spec.enumerate_answers(TUP_ZERO_ID, CFG)
    assert TUP_ZERO_ID.index in answers
    for a in answers:
        assert spec.verify(TUP_ZERO_ID, a, CFG)


# ---------------------------------------------------------------------------
# the full catalog, base and mutants


def test_registry_is_complete():
    reg = reduction_registry(CFG)
    assert sorted(reg) == [
        "b_kolgeq", "cn_limn", "ghat_g", "gstar_g", "inf_cn", "kol_limn",
        "kolgeq_b", "liminf_minhat", "limn_cn", "limn_g", "lpo_kol",
    ]
    for case in reg.values():
        assert len(case.mutant_modes) >= 2


@pytest.mark.parametrize("name", sorted(reduction_registry(CFG)))
def test_catalog_entry_passes_its_corpus(name):
    case = reduction_registry(CFG)[name]
    rep = check_reduction(case.f, case.g, case.pair, _corpus(name), CFG)
    assert rep.passed, rep.witnesses
    assert rep.witnesses == ()
    for rec in rep.records:
        assert rec.tried, "corpus instance enumerated no answers"


@pytest.mark.parametrize("name", sorted(reduction_registry(CFG)))
def test_catalog_mutants_are_detected(name):
    case = reduction_registry(CFG)[name]
    for mode in case.mutant_modes:
        broken = mutate(case.pair, mode)
        rep = check_reduction(case.f, case.g, broken, _corpus(name), CFG)
        assert not rep.passed, f"{mode} went undetected"
        assert rep.witnesses
        for rec in rep.records:
            if not rec.verified:
                assert any(w.instance_id == rec.instance_id for w in rep.witnesses)


def test_unknown_mutation_mode_rejected():
    with pytest.raises(ValueError):
        mutate(catalog_cn_limn(), "scramble")


def test_b_kolgeq_leaves_the_universe_on_stepped_instances():
    # R-members above distinct values climb fast; the image literal has
    # no index inside the bounded universe and the checker must say so
    case = reduction_registry(CFG)["b_kolgeq"]
    rep = check_reduction(case.f, case.g, case.pair,
                          [Literal((0, 1), Constant(2))], CFG)
    assert not rep.passed
    assert [w.kind for w in rep.witnesses] == ["g_domain"]


# ---------------------------------------------------------------------------
# properties

literals = st.builds(
    Literal,
    st.lists(st.integers(0, 6), max_size=5).map(tuple),
    st.one_of(
        st.builds(Constant, st.integers(0, 6)),
        st.builds(Periodic, st.lists(st.integers(0, 6), min_size=1,
                                     max_size=3).map(tuple)),
    ),
)


@given(literals)
@settings(max_examples=60, deadline=None)
def test_liminf_minhat_limit_is_the_liminf(x):
    y = catalog_liminf_minhat().K(x)
    assert literal_limit(y) == literal_liminf(x)


@given(literals)
@settings(max_examples=60, deadline=None)
def test_cn_limn_limit_avoids_the_range(x):
    y = catalog_cn_limn().K(x)
    lim = literal_limit(y)
    assert lim not in literal_values(x)
    # and it is the least such value
    assert all(v in literal_values(x) for v in range(lim))


@given(literals, st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_inf_cn_recovers_the_least_absent(x, a):
    present = literal_values(x)
    if a in present:
        return
    least = 0
    while least in present:
        least += 1
    assert catalog_inf_cn().H(x, a) == least


def test_a_passing_ghat_check_encodes_no_composed_index(monkeypatch):
    # its answers are composed indices of 237,768 to 497,085 bits, which
    # only a witness would write out, and then only as #bits=
    made = []
    real = numbering.encode

    def recording(program):
        made.append(real(program))
        return made[-1]

    clear_eval_cache()
    monkeypatch.setattr(numbering, "encode", recording)
    case = reduction_registry(CFG)["ghat_g"]
    rep = check_reduction(case.f, case.g, case.pair, _corpus("ghat_g"), CFG)
    assert rep.passed
    assert max((i.bit_length() for i in made), default=0) < 100_000
