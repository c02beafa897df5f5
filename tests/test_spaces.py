"""Descriptor tests.

The window oracle `window` of tests/literal_reference.py reads a Literal
the slow way (prefix, then cycle the tail word) and is the cross-check
for every closed-form analysis.  Window lengths cover the prefix plus
several tail periods, so any value or cluster the analysis claims must
actually show up.
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from godellab.numbering import Halted, evaluate
from godellab.spaces import (
    Constant,
    Generated,
    Literal,
    Periodic,
    cluster_values,
    compile_literal,
    descriptor_get,
    format_descriptor,
    is_convergent,
    literal_eval_budget,
    literal_is_zero,
    literal_liminf,
    literal_limit,
    literal_sup,
    literal_value,
    literal_values,
    parse_descriptor,
)
from literal_reference import span, tail_word, window

# ---------------------------------------------------------------------------
# random literals


_literals = st.builds(
    Literal,
    st.lists(st.integers(0, 9), max_size=6).map(tuple),
    st.one_of(
        st.integers(0, 9).map(Constant),
        st.lists(st.integers(0, 9), min_size=1, max_size=4).map(tuple).map(Periodic),
    ),
)


# ---------------------------------------------------------------------------
# pointwise values


def test_literal_value_frozen_examples():
    assert literal_value(Literal((4,), Constant(1)), 0) == 4
    assert literal_value(Literal((4,), Constant(1)), 3) == 1
    assert literal_value(Literal((), Periodic((2, 3))), 5) == 3
    assert literal_value(Literal((5, 5, 3), Constant(3)), 1) == 5


@settings(max_examples=120, deadline=None)
@given(_literals)
def test_literal_value_matches_window_oracle(d):
    assert [literal_value(d, n) for n in range(span(d))] == window(d, span(d))


def test_generated_descriptor_reports_partiality():
    assert descriptor_get(Generated(7, 10), 0) is None
    assert descriptor_get(Generated(2, 10), 4) == 5


def test_descriptor_validation():
    with pytest.raises(ValueError):
        Periodic(())
    with pytest.raises(ValueError):
        Literal((1,), tail=(0, 1))
    with pytest.raises(ValueError):
        Generated(3, 0)
    with pytest.raises(ValueError):
        literal_value(Literal((), Constant(0)), -1)


# ---------------------------------------------------------------------------
# closed-form analyses against the window oracle


@settings(max_examples=120, deadline=None)
@given(_literals)
def test_value_and_cluster_sets_match_window(d):
    seq = window(d, span(d))
    assert literal_values(d) == set(seq)
    assert cluster_values(d) == set(seq[len(d.prefix):])
    assert literal_sup(d) == max(seq)
    assert literal_liminf(d) == min(seq[len(d.prefix):])


@settings(max_examples=120, deadline=None)
@given(_literals)
def test_zero_and_first_nonzero_agree(d):
    seq = window(d, span(d))
    assert literal_is_zero(d) == all(v == 0 for v in seq)


@settings(max_examples=120, deadline=None)
@given(_literals)
def test_convergence_and_limit(d):
    w = tail_word(d)
    assert is_convergent(d) == (len(set(w)) == 1)
    if is_convergent(d):
        assert literal_limit(d) == w[0]
    else:
        with pytest.raises(ValueError):
            literal_limit(d)


def test_analysis_frozen_examples():
    assert cluster_values(Literal((9,), Periodic((1, 2)))) == {1, 2}
    assert literal_liminf(Literal((9,), Periodic((1, 2)))) == 1
    assert literal_limit(Literal((5, 5, 3), Constant(3))) == 3
    assert literal_is_zero(Literal((), Constant(0)))
    assert not literal_is_zero(Literal((0, 0, 1), Constant(0)))


# ---------------------------------------------------------------------------
# compiling literals


def test_compile_literal_zero_sequence_is_index_one():
    assert compile_literal(Literal((), Constant(0))) == 1


def test_compile_literal_small_cases_evaluate_exactly():
    cases = [
        Literal((1,), Constant(2)),
        Literal((), Periodic((0, 1))),
        Literal((0, 1), Constant(2)),
        Literal((), Constant(3)),
    ]
    for d in cases:
        idx = compile_literal(d)
        for n in range(10):
            budget = literal_eval_budget(d, n)
            out = evaluate(idx, n, budget)
            assert out == Halted(literal_value(d, n), out.steps)


def test_compile_literal_rejections():
    with pytest.raises(ValueError):
        compile_literal(Generated(4, 100))
    with pytest.raises(ValueError):
        compile_literal(Literal((1, 2, 3, 4, 5, 6, 7, 8), Constant(9)))


@pytest.mark.parametrize("d, needs", [
    (Literal((10**9,), Constant(0)), 10**9 + 5),
    (Literal((), Constant(10**9)), 10**9 + 1),
    (Literal((), Periodic((0,) * 10**6)), 5 * 10**6 + 3),
])
def test_compile_literal_refuses_a_wide_table_before_building_it(d, needs):
    # the table is counted, not built: 10**9 instructions are never emitted
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"needs {needs} instructions"):
        compile_literal(d)
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# text form


def test_parse_frozen_forms():
    d = parse_descriptor("lit prefix=1,2,3 tail=const:7")
    assert d == Literal((1, 2, 3), Constant(7))
    assert parse_descriptor("lit tail=per:0,1") == Literal((), Periodic((0, 1)))
    assert parse_descriptor("gen index=412 budget=1000") == Generated(412, 1000)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_literals, st.builds(Generated, st.integers(0, 10**6), st.integers(1, 10**5))))
def test_descriptor_text_round_trip(d):
    assert parse_descriptor(format_descriptor(d)) == d


def test_parse_reads_ascii_digits_only():
    # int() reads "1_0" as 10, "+5" as 5 and "١" as 1, none of which
    # format_descriptor writes back
    for bad in ["gen index=1_0 budget=5", "gen index=10 budget=+5",
                "gen index=-0 budget=5", "lit prefix=١ tail=const:0",
                "lit tail=const:²", "lit tail=per:0,1_1"]:
        with pytest.raises(ValueError, match="ASCII decimal digits"):
            parse_descriptor(bad)
    assert parse_descriptor("gen index=010 budget=5") == Generated(10, 5)


def test_parse_rejects_malformed_text():
    for bad in [
        "",
        "seq tail=const:0",
        "lit prefix=1,2",
        "lit tail=const:1 tail=const:2",
        "lit tail=wave:1",
        "lit tail=per:",
        "gen index=4",
        "lit prefix=1 tail=const:0 extra=1",
        "lit noequals",
    ]:
        with pytest.raises(ValueError):
            parse_descriptor(bad)
