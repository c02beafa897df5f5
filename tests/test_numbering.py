"""Coding and evaluator tests.

Frozen constants below were worked out by hand from the coding equations
(Cantor pair, list code, tag = code mod 5) before the implementation ran.
The evaluator is checked against godelbench/reference.py, which shares
no code with the lab, through tests/machine_reference.py; the wider
differential checks are in tests/test_differential.py.
"""

import gc
import itertools
import operator
import random
import time
import tracemalloc
from collections.abc import MutableMapping, MutableSequence, MutableSet
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from godellab import numbering
from godellab.numbering import (
    Copy,
    Halted,
    Inc,
    Loop,
    LoopCompiler,
    Program,
    ZeroR,
    affine_budget,
    clear_eval_cache,
    compile_loop,
    decode,
    decode_list,
    default_loop_compiler,
    encode,
    encode_list,
    evaluate,
    first_value_budget,
    first_value_program,
    format_program,
    pair,
    parse_program,
    precompose_affine,
    run_loop,
    stride_tuple_budget,
    stride_tuple_program,
    s_const,
    s_const_budget,
    unpair,
    value_table_budget,
    value_table_program,
)
from godellab.numbering import _NEVER, _lower, _records
from machine_reference import reference_outcome, reference_program_outcome

# ---------------------------------------------------------------------------
# pairing


def test_pair_frozen_values():
    assert pair(0, 0) == 0
    assert pair(1, 0) == 1
    assert pair(0, 1) == 2
    assert pair(1, 2) == 8
    assert pair(3, 4) == 32
    assert unpair(1) == (1, 0)
    assert unpair(2) == (0, 1)


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_pair_roundtrip(x, y):
    assert unpair(pair(x, y)) == (x, y)


@given(st.integers(0, 10**12))
def test_unpair_roundtrip(n):
    x, y = unpair(n)
    assert pair(x, y) == n


def _textbook_pair(x, y):
    return (x + y) * (x + y + 1) // 2 + y


def test_pair_equals_the_textbook_formula():
    for x in range(301):
        for y in range(301):
            assert pair(x, y) == _textbook_pair(x, y)
    rng = random.Random(12)
    for bits in (64, 1000, 10**4, 10**5, 10**6):
        x, y = rng.getrandbits(bits), rng.getrandbits(rng.randrange(1, bits + 1))
        assert pair(x, y) == _textbook_pair(x, y)
        assert pair(y, x) == _textbook_pair(y, x)


def test_pair_rejects_negatives():
    with pytest.raises(ValueError):
        pair(-1, 0)
    with pytest.raises(ValueError):
        unpair(-1)


# list codes nest pairs, so digit counts double per element; keep lists short
@given(st.lists(st.integers(0, 10**4), max_size=8))
def test_list_code_roundtrip(xs):
    assert decode_list(encode_list(xs)) == xs


def test_list_code_frozen():
    assert encode_list([]) == 0
    assert encode_list([0]) == 1
    assert encode_list([1]) == 2
    assert encode_list([0, 1]) == 6


# ---------------------------------------------------------------------------
# instruction and program codes


def test_instruction_codes_frozen():
    table = {"Z 0": 0, "S 0": 1, "T 0 0": 2, "J 0 0 0": 3, "EVB 0 0 0 0": 4,
             "T 1 0": 7, "J 0 1 2": 223, "J 0 1 3": 523}
    for text, code in table.items():
        assert parse_program(text).codes == (code,)
        assert format_program(Program((code,))) == text


def _prog(*lines):
    return parse_program("\n".join(lines))


def test_small_program_indices_frozen():
    table = {
        0: _prog(),
        1: _prog("Z 0"),
        2: _prog("S 0"),
        3: _prog("Z 0", "Z 0"),
        4: _prog("T 0 0"),
        5: _prog("S 0", "Z 0"),
        6: _prog("Z 0", "S 0"),
        7: _prog("J 0 0 0"),
        11: _prog("EVB 0 0 0 0"),
        55: _prog("Z 0", "S 0", "S 0"),
        2211: _prog("Z 0", "S 0", "S 0", "S 0"),
        140192: _prog("J 0 1 3", "Z 0", "S 0"),
    }
    for index, program in table.items():
        assert decode(index) == program
        assert encode(program) == index


@given(st.integers(0, 10**7))
def test_program_code_roundtrip(m):
    assert encode(decode(m)) == m


_reg = st.integers(0, 6).map(str)
# one instruction's text line
_instr = st.one_of(
    st.builds("Z {}".format, _reg),
    st.builds("S {}".format, _reg),
    st.builds("T {} {}".format, _reg, _reg),
    st.builds("J {} {} {}".format, _reg, _reg, st.integers(0, 12)),
    st.builds("EVB {} {} {} {}".format, _reg, _reg, _reg, _reg),
)


@given(st.lists(_instr, max_size=8))
def test_program_roundtrip_from_instructions(lines):
    p = parse_program("\n".join(lines))
    assert len(p) == len(lines)
    assert decode(encode(p)) == p


# ---------------------------------------------------------------------------
# text form


@given(st.lists(_instr, max_size=8), st.lists(st.integers(0, 10**9), max_size=8))
def test_format_parse_roundtrip(lines, codes):
    # every natural is one instruction's code, so any codes have a text
    text = "\n".join(lines)
    assert format_program(parse_program(text)) == text
    p = Program(tuple(codes))
    assert parse_program(format_program(p)) == p


def test_parse_skips_blanks_and_comments():
    p = parse_program("\n# header\n  S 0\n\nJ 0 0 2\n")
    assert p == _prog("S 0", "J 0 0 2")


def test_parse_rejects_garbage():
    # an unknown op ("ſ" upper-cases to "S"), a wrong arity, and arguments
    # that are not ASCII decimal digits: int() reads "٣" as 3, "+1" as 1
    # and "1_0" as 10, and isdigit() passes "²"
    for bad in ("Q 0", "\u017f 0", "S 0 0", "J 0 1", "J 0 x 1", "S -1",
                "S \u0663", "S +1", "S 1_0", "T 0 \u00b2"):
        with pytest.raises(ValueError, match="^line 2: "):
            parse_program(f"# header\n{bad}\nZ 0")


# ---------------------------------------------------------------------------
# evaluator


def test_evaluate_frozen_values():
    assert evaluate(0, 9, 10) == Halted(9, 0)
    assert evaluate(1, 9, 10) == Halted(0, 1)
    assert evaluate(2, 5, 100) == Halted(6, 1)
    assert evaluate(5, 3, 10) == Halted(0, 2)
    assert evaluate(6, 3, 10) == Halted(1, 2)
    assert evaluate(7, 7, 50) is None
    assert evaluate(55, 0, 10) == Halted(2, 3)


def test_values_at_zero_first_nine_indices():
    # worked by hand: [], [Z 0], [S 0], [Z 0 Z 0], [T 0 0], [S 0 Z 0],
    # [Z 0 S 0], [J 0 0 0], [T 0 0 Z 0]
    expected = [0, 0, 1, 0, 0, 0, 1, None, 0]
    for i, want in enumerate(expected):
        got = evaluate(i, 0, 1000)
        if want is None:
            assert got is None
        else:
            assert isinstance(got, Halted) and got.value == want


def test_evb_frozen_values():
    # [EVB 0 0 0 0] reads index, input and budget all from R0
    assert evaluate(11, 0, 10) == Halted(1, 1)
    assert evaluate(11, 1, 10) == Halted(1, 1)
    assert evaluate(11, 2, 10) == Halted(4, 1)


def test_evb_inner_budget_zero_allows_empty_program():
    # EVB with budget register at 0: only the empty program can answer
    p = _prog("EVB 1 0 1 0")
    idx = encode(p)
    for n in range(5):
        assert evaluate(idx, n, 10) == Halted(n + 1, 1)


def test_evb_self_reference_is_cut():
    out1 = evaluate(11, 11, 100)
    out2 = evaluate(11, 11, 5)
    assert out1 == Halted(0, 1)
    assert out2 == Halted(0, 1)


def test_memo_hit_returns_the_stored_outcome():
    clear_eval_cache()
    index = encode(_prog("S 0", "S 0", "S 0"))
    first = evaluate(index, 4, 10)
    assert first == Halted(7, 3)
    assert _records[index].outcomes[4] is first
    assert evaluate(index, 4, 10) is first
    assert evaluate(index, 4, 3) is first
    assert evaluate(index, 4, 2) is None
    clear_eval_cache()
    again = evaluate(index, 4, 10)
    assert again == first and again is not first


def test_outcomes_are_slotted_frozen_values():
    halted = Halted(1, 6)
    assert not hasattr(halted, "__dict__")
    with pytest.raises(FrozenInstanceError):
        halted.steps = 7
    assert repr(Halted(1, 6)) == "Halted(value=1, steps=6)"
    assert Halted(1, 6) == Halted(1, 6) and hash(Halted(1, 6)) == hash(Halted(1, 6))
    assert Halted(1, 6) != (1, 6)


def test_evaluate_argument_validation():
    with pytest.raises(ValueError):
        evaluate(0, 0, 0)
    with pytest.raises(ValueError):
        evaluate(-1, 0, 10)
    with pytest.raises(ValueError):
        evaluate(0, -1, 10)


def test_divergent_program_fast_after_cycle_proof():
    clear_eval_cache()
    assert evaluate(7, 0, 10**9) is None
    assert evaluate(7, 0, 10**12) is None


# loops that never halt while a register no comparison reads grows
_GROWING_LOOPS = [
    _prog("S 1", "J 0 0 0"),
    _prog("S 0", "J 0 0 0", "Z 0"),
    _prog("EVB 1 0 0 0", "J 0 0 0"),
]


def test_control_slots_of_hand_programs():
    def ctrl(*lines):
        return _lower(_prog(*lines).codes)[3]

    for program in _GROWING_LOOPS:
        assert _lower(program.codes)[3] == ()
    # compared slots only; J a a k compares nothing
    assert ctrl("J 0 2 0", "S 1") == (0, 2)
    assert ctrl("J 3 3 0", "S 1") == ()
    # a T chain into a compared slot, and T out of one
    assert ctrl("T 1 2", "T 2 3", "J 3 4 0", "T 4 5", "S 6") == (1, 2, 3, 4)
    # EVB into a compared slot pulls in index, argument and budget, and
    # a T into any of those follows
    assert ctrl("EVB 1 2 3 4", "T 5 1", "J 4 6 0", "S 7") == (1, 2, 3, 4, 5, 6)
    assert ctrl("EVB 1 2 3 4", "J 1 5 0") == (1, 5)
    # slots, not register names; None when every slot is compared
    assert ctrl("J 10 20 0", "S 30") == (1, 2)
    assert ctrl("J 0 1 0") is None


def test_growing_loops_are_proven_divergent_at_once():
    for program in _GROWING_LOOPS:
        index = encode(program)
        for arg in range(3):
            clear_eval_cache()
            assert evaluate(index, arg, 10**9) is None
            assert _records[index].outcomes[arg] is _NEVER
            clear_eval_cache()
            assert evaluate(program, arg, 10**9) is None


_pool = st.one_of(
    st.integers(0, 200_000),
    st.sampled_from([0, 1, 2, 5, 6, 7, 11, 55, 140192]),
)


@settings(max_examples=150, deadline=None)
@given(_pool, st.integers(0, 12), st.integers(1, 60), st.integers(0, 200))
def test_budget_monotonicity(index, arg, b1, extra):
    b2 = b1 + extra
    clear_eval_cache()
    o1 = evaluate(index, arg, b1)
    o2 = evaluate(index, arg, b2)
    if isinstance(o1, Halted):
        assert o2 == o1
        assert o1.steps <= b1
    elif isinstance(o2, Halted):
        assert b1 < o2.steps <= b2


@settings(max_examples=120, deadline=None)
@given(_pool, st.integers(0, 12), st.integers(1, 150))
def test_evaluator_matches_reference(index, arg, budget):
    clear_eval_cache()
    assert evaluate(index, arg, budget) == reference_outcome(index, arg, budget)


@settings(max_examples=60, deadline=None)
@given(_pool, st.integers(0, 8), st.lists(st.integers(1, 120), min_size=2, max_size=5))
def test_memo_is_transparent(index, arg, budgets):
    # interleaved budgets against a fresh cache must agree call by call
    clear_eval_cache()
    cached = [evaluate(index, arg, b) for b in budgets]
    fresh = []
    for b in budgets:
        clear_eval_cache()
        fresh.append(evaluate(index, arg, b))
    assert cached == fresh
    clear_eval_cache()


@settings(max_examples=60, deadline=None)
@given(_pool, st.integers(0, 8), st.integers(1, 300))
def test_a_decoded_program_runs_as_its_index(index, arg, budget):
    clear_eval_cache()
    by_program = evaluate(decode(index), arg, budget)
    clear_eval_cache()
    assert by_program == evaluate(index, arg, budget)


def test_a_program_calling_itself_is_cut_as_its_index_is():
    # EVB 0 0 0 0 calls (11, 11), which is re-entrant whether the run
    # starts from the index or from the program
    assert decode(11) == _prog("EVB 0 0 0 0")
    clear_eval_cache()
    assert evaluate(decode(11), 11, 100) == Halted(0, 1)
    clear_eval_cache()
    assert evaluate(11, 11, 100) == Halted(0, 1)


def test_programs_hold_natural_codes_only():
    # _fields(-5) would read Z -1, and lowering would move R0 off slot 0
    with pytest.raises(ValueError, match="naturals"):
        evaluate(Program((-5,)), 0, 5)
    with pytest.raises(ValueError, match="naturals"):
        Program((1, 6, -1))
    p = _prog("J 0 1 3", "Z 0", "S 0")
    assert p.codes == (523, 0, 1)


def test_evaluate_runs_wide_unary_programs_without_their_index():
    wide = Program((1,) * 500)
    assert wide == _prog(*["S 0"] * 500)
    assert evaluate(wide, 3, 500) == Halted(503, 500)
    assert evaluate(wide, 3, 499) is None
    assert _records[wide.codes].index is None


def test_an_evb_probe_program_matches_host_evaluator():
    # wide probe: R0 = index under test, unary loads for argument and
    # inner budget, one EVB, result moved to R0
    for i, n, s in [(0, 3, 5), (2, 7, 2), (7, 0, 40), (11, 4, 9), (140192, 1, 64)]:
        body = ["S 1"] * n + ["S 2"] * s + ["EVB 0 1 2 3", "T 3 0"]
        probe = _prog(*body)
        out = evaluate(probe, i, len(body) + 1)
        assert isinstance(out, Halted)
        inner = evaluate(i, n, s)
        want = inner.value + 1 if isinstance(inner, Halted) else 0
        assert out.value == want


def test_clear_eval_cache_empties_every_cache_of_numbering():
    # every module-level mutable container of numbering but a CONSTANT is
    # a cache, and a cache left out of the clear would carry one run into
    # the next; `_records` is the only one, the one store whose size a
    # bound needs
    caches = {name: value for name, value in vars(numbering).items()
              if isinstance(value, (MutableMapping, MutableSequence, MutableSet))
              and not name.startswith("__") and not name.isupper()}
    assert set(caches) == {"_records"}
    clear_eval_cache()
    evaluate(s_const(2, 1), 0, 100)
    assert all(caches.values())
    clear_eval_cache()
    assert not any(caches.values())


def test_clear_eval_cache_leaves_no_record_for_the_collector():
    # an entry below the top of an EVB chain is keyed by the chain's
    # records, so a program that runs itself on its own index holds its own
    # record; with the collector off, a record left in such a cycle would
    # outlive the clear
    gc.collect()
    gc.disable()
    try:
        clear_eval_cache()
        for i in range(2000):
            for n in (*range(17), i):
                evaluate(i, n, 400)
        assert sum(any(rec in {r for r, _ in key[1]}
                       for key in rec.outcomes if type(key) is tuple)
                   for rec in set(numbering._records.values())) == 62
        clear_eval_cache()
        assert not [o for o in gc.get_objects() if type(o) is numbering._Record]
    finally:
        gc.enable()


def test_evaluator_state_of_a_universe_scan_stays_small():
    # the cells of the benchmark's scan: indices 0..1000 at positions
    # 0..16 under cap 400, then 10^4, from a cleared cache; what is still
    # allocated once the returned outcomes are dropped is the evaluator's
    # state (3.34 MB when each cell had its own key and entry tuples)
    clear_eval_cache()
    tracemalloc.start()
    try:
        outs = [evaluate(i, n, cap) for cap in (400, 10**4)
                for i in range(1001) for n in range(17)]
        del outs
        retained, _ = tracemalloc.get_traced_memory()
        # the shipped cap leaves the scan alone: every index is still
        # keyed, each record under two keys (2,002 of 4,096)
        assert all(i in _records for i in range(1001))
        assert len(_records) < numbering._KEY_CAP
    finally:
        tracemalloc.stop()
        clear_eval_cache()
    assert retained < 2_400_000


def test_a_cold_universe_scan_runs_a_free_program_once_per_cap(monkeypatch):
    # the same cells took 17,192 runs when every missed cell ran on its
    # own; a program whose input reaches no comparison (639 of the
    # indices, such as 9, S 0; S 0) runs at most once per cap for all 17
    runs = []
    real = numbering._run

    def counting(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(numbering, "_run", counting)
    clear_eval_cache()
    for cap in (400, 10**4):
        for i in range(1001):
            for n in range(17):
                evaluate(i, n, cap)
    clear_eval_cache()
    assert len(runs) < 17_192 // 2


# ---------------------------------------------------------------------------
# index transformers


def test_s_const_identity_base():
    idx = s_const(0, 2)
    budget = s_const_budget(2, 4, 0)
    out = evaluate(idx, 4, budget)
    assert out == Halted(pair(2, 4), out.steps)
    assert out.steps <= budget


def test_s_const_on_successor():
    idx = s_const(2, 1)
    out = evaluate(idx, 2, s_const_budget(1, 2, 1))
    assert isinstance(out, Halted) and out.value == pair(1, 2) + 1


def test_s_const_preserves_divergence():
    idx = s_const(7, 1)
    assert evaluate(idx, 0, 2000) is None


def test_s_const_grid_matches_direct_call():
    for base in (0, 1, 2, 6, 140192):
        for c in range(2):
            for n in range(4):
                direct = evaluate(base, pair(c, n), 500)
                assert isinstance(direct, Halted)
                budget = s_const_budget(c, n, direct.steps)
                lifted = evaluate(s_const(base, c), n, budget)
                assert isinstance(lifted, Halted)
                assert lifted.value == direct.value
                assert lifted.steps <= budget


def test_s_const_rejects_unrepresentable():
    # big constants inflate the macro past the emission ceiling
    with pytest.raises(ValueError):
        s_const(0, 6)


def test_emitters_refuse_before_building():
    # a macro of 10**12 instructions is never built
    with pytest.raises(ValueError, match="needs 1000000000004 instructions"):
        precompose_affine(0, 10**12, 0)
    with pytest.raises(ValueError, match=r"s_const\(\.\.\., 3000\) needs 4504512 "):
        s_const(0, 3000)


def test_emitters_decode_their_suffix_once(monkeypatch):
    # the scratch base and the copied suffix come from one decoding of an
    # index not seen before, whether the program is built or refused
    calls = []
    monkeypatch.setattr(numbering, "decode_list",
                        lambda n: calls.append(n) or decode_list(n))
    index = 140192
    for ceiling in (numbering.EMIT_LENGTH_CEILING, 4):
        monkeypatch.setattr(numbering, "EMIT_LENGTH_CEILING", ceiling)
        for emit, args in [(s_const, (index, 1)), (precompose_affine, (index, 2, 1)),
                           (precompose_affine, (index, 1, 3))]:
            clear_eval_cache()
            calls.clear()
            if ceiling == 4:
                with pytest.raises(ValueError, match="needs"):
                    emit(*args)
            else:
                emit(*args)
            assert calls == [index], (emit.__name__, args, ceiling)


def _emitted_length(emit, *args, **kwargs):
    """Instructions emit(...) builds, a Program or the program of an
    index, or the count its refusal names."""
    try:
        out = emit(*args, **kwargs)
    except ValueError as err:
        return int(str(err).split(" needs ")[1].split()[0])
    return len(out if isinstance(out, Program) else decode(operator.index(out)))


def test_emitter_length_checks_count_what_is_emitted(monkeypatch):
    # the up-front counts equal the emitted lengths, built or refused
    for index in (0, 9, 140192):
        suffix = len(decode(index))
        for mul, add in [(m, a) for m in range(4) for a in range(4)] + [
                (1, 23), (0, 19), (3, 16), (16, 4), (40, 0)]:
            assert _emitted_length(precompose_affine, index, mul, add) == \
                (add if mul == 1 else mul + add + 4) + suffix
        for const in (0, 1, 4, 7):
            assert _emitted_length(s_const, index, const) == \
                const + 2 + const * (const + 1) // 2 + 10 + suffix
    # a table's count equals the length it builds under no ceiling
    for prefix, tail in [
            ((), {"const": 0}), ((), {"const": 21}), ((3, 0), {"const": 2}),
            ((4,), {"word": (5,)}), ((1,), {"word": (0, 2)}),
            ((), {"word": (1, 0, 2)}), ((9, 9), {"const": 9}),
            ((0,) * 8, {"word": (1, 2, 3)}), ((), {"word": (0,) * 6})]:
        counted = _emitted_length(value_table_program, prefix, **tail)
        with monkeypatch.context() as m:
            m.setattr(numbering, "EMIT_LENGTH_CEILING", 10**6)
            assert counted == len(value_table_program(prefix, **tail))
    # so do the dovetailer's, with one member and with several
    for members in [(0,), (11,), (12,), (30,), (0, 2), (1, 2, 5), (4, 9),
                    (0, 1, 2, 3), (10, 20, 30)]:
        counted = _emitted_length(first_value_program, members)
        with monkeypatch.context() as m:
            m.setattr(numbering, "EMIT_LENGTH_CEILING", 10**6)
            assert counted == len(first_value_program(members)), members
    # and a stride tuple's, at widths 1 to 3
    bodies = [parse_program("T 2 0" + "\nS 0" * k) for k in (0, 2, 9, 21)]
    for width in (1, 2, 3):
        for chosen in itertools.product(bodies, repeat=width):
            counted = _emitted_length(stride_tuple_program, chosen)
            with monkeypatch.context() as m:
                m.setattr(numbering, "EMIT_LENGTH_CEILING", 10**6)
                assert counted == len(stride_tuple_program(chosen))
    # a loop program's refusal under a low ceiling counts what it builds
    for stmts in [(Inc(0),), (ZeroR(1), Loop(0, (Inc(1), Inc(1))), Copy(1, 0)),
                  (ZeroR(1), Loop(0, (Loop(0, (Inc(1),)),)), Copy(1, 0))]:
        with monkeypatch.context() as m:
            m.setattr(numbering, "EMIT_LENGTH_CEILING", 0)
            counted = _emitted_length(LoopCompiler().compile, stmts)
        assert counted == _emitted_length(LoopCompiler().compile, stmts)


def test_loop_compiler_refuses_past_the_ceiling_before_encoding():
    # a 23-instruction index would have millions of bits
    start = time.perf_counter()
    with pytest.raises(ValueError, match="loop program needs 23 instructions"):
        compile_loop((Inc(0),) * 23)
    assert time.perf_counter() - start < 1


# names {0, 3, 10**9}: the identity while registers start at 0, and 0 on
# positive inputs once R3 is disturbed, so a scratch base at the dense
# register count (3) instead of past the largest name shows up
_HUGE = parse_program("J 1000000000 3 2\nZ 0")


def test_huge_register_names_evaluate_like_small_ones():
    index = encode(_HUGE)
    for n in range(4):
        out = evaluate(index, n, 10)
        assert out == Halted(n, 1)
        assert evaluate(_HUGE, n, 10) == out
        assert reference_outcome(index, n, 10) == out


def test_emitters_put_scratch_past_the_largest_register_name():
    index = encode(_HUGE)
    for n in range(4):
        budget = s_const_budget(0, n, 1)
        out = evaluate(s_const(index, 0), n, budget)
        assert isinstance(out, Halted) and out.value == pair(0, n)
        budget = affine_budget(2, 1, n, 1)
        out = evaluate(precompose_affine(index, 2, 1), n, budget)
        assert isinstance(out, Halted) and out.value == 2 * n + 1


def test_precompose_affine():
    for mul, add in ((0, 5), (1, 0), (1, 4), (2, 3), (3, 0)):
        idx = precompose_affine(2, mul, add)
        for n in range(5):
            want = evaluate(2, mul * n + add, 10)
            assert isinstance(want, Halted)
            budget = affine_budget(mul, add, n, want.steps)
            got = evaluate(idx, n, budget)
            assert got == Halted(want.value, got.steps)
            assert got.steps <= budget


# ---------------------------------------------------------------------------
# first-value programs


def test_first_value_single_member_extracts_value():
    idx = encode(first_value_program([2]))
    budget = first_value_budget([2], 1, 6)
    out = evaluate(idx, 5, budget)
    assert out == Halted(6, out.steps)
    assert out.steps <= budget


def test_first_value_first_listed_member_wins():
    # member 1 is the constant-0 program; member 2 is never consulted
    idx = encode(first_value_program([1, 2]))
    out = evaluate(idx, 5, first_value_budget([1, 2], 1, 0))
    assert isinstance(out, Halted) and out.value == 0


def test_first_value_zero_member_and_zero_gap():
    idx = encode(first_value_program([0, 2]))
    out = evaluate(idx, 9, first_value_budget([0, 2], 1, 9))
    assert isinstance(out, Halted) and out.value == 9


def test_first_value_skips_member_too_slow_for_round(monkeypatch):
    # member 3 needs 2 steps and misses the budget-1 round; member 4
    # (identity) answers within it; checked on the reference interpreter
    # because the emitted index is too wide to encode cheaply
    prog = first_value_program([3, 4])
    budget = first_value_budget([3, 4], 1, 9)
    out = reference_program_outcome(monkeypatch, prog, 9, budget)
    assert isinstance(out, Halted) and out.value == 9
    assert evaluate(prog, 9, budget) == out


def test_first_value_all_divergent_never_halts(monkeypatch):
    prog = first_value_program([7])
    assert reference_program_outcome(monkeypatch, prog, 0, 3000) is None
    assert evaluate(prog, 0, 3000) is None


def test_first_value_rejects_bad_member_lists():
    with pytest.raises(ValueError):
        first_value_program([])
    with pytest.raises(ValueError):
        first_value_program([2, 1])
    with pytest.raises(ValueError):
        first_value_program([1, 1])
    with pytest.raises(ValueError):
        first_value_program([40])


# ---------------------------------------------------------------------------
# bounded-loop sub-language


def test_run_loop_samples():
    double = (ZeroR(1), Loop(0, (Inc(1), Inc(1))), Copy(1, 0))
    square = (ZeroR(1), Loop(0, (Loop(0, (Inc(1),)),)), Copy(1, 0))
    for n in range(7):
        assert run_loop(double, n) == 2 * n
        assert run_loop(square, n) == n * n
    assert run_loop((), 9) == 9
    assert run_loop((Inc(0),), 9) == 10


def test_loop_count_fixed_at_entry():
    # the body increments the loop register; iteration count must not change
    grow = (Loop(0, (Inc(0),)),)
    assert run_loop(grow, 5) == 10


def test_compiled_loop_matches_interpreter():
    samples = [
        (),
        (Inc(0),),
        (ZeroR(1), Loop(0, (Inc(1), Inc(1))), Copy(1, 0)),
        (ZeroR(1), Loop(0, (Loop(0, (Inc(1),)),)), Copy(1, 0)),
        (Loop(0, (Inc(0),)),),
    ]
    comp = LoopCompiler()
    for stmts in samples:
        index = comp.compile(stmts)
        for n in range(6):
            out = evaluate(index, n, 10**4)
            assert isinstance(out, Halted) and out.value == run_loop(stmts, n)


def test_nested_loop_index_is_frozen():
    square = (ZeroR(1), Loop(0, (Loop(0, (Inc(1),)),)), Copy(1, 0))
    index = compile_loop(square)
    assert index.bit_length() == 29663
    assert index % 10**12 == 757089412920


def test_loop_compiler_records_image():
    comp = LoopCompiler()
    index = comp.compile((Inc(0),))
    assert comp.indices() == [index]
    assert comp.compile((Inc(0),)) == index
    assert comp.indices() == [index]
    before = set(default_loop_compiler.indices())
    idx = compile_loop((Inc(0), Inc(0)))
    assert idx in default_loop_compiler.indices()
    assert set(default_loop_compiler.indices()) >= before


# ---------------------------------------------------------------------------
# table programs


def test_value_table_constant_tail():
    p = value_table_program([0, 1], const=2)
    idx = encode(p)
    want = [0, 1, 2, 2, 2, 2]
    for n, v in enumerate(want):
        budget = value_table_budget([0, 1], 2, None, n)
        out = evaluate(idx, n, budget)
        assert out == Halted(v, out.steps)
        assert out.steps <= budget


def test_value_table_periodic_tail():
    p = value_table_program([], word=[0, 1])
    idx = encode(p)
    want = [0, 1, 0, 1, 0, 1, 0]
    for n, v in enumerate(want):
        budget = value_table_budget([], None, [0, 1], n)
        out = evaluate(idx, n, budget)
        assert isinstance(out, Halted) and out.value == v


def test_value_table_prefix_then_periodic_tail():
    p = value_table_program([0], word=[1])
    idx = encode(p)
    for n in range(5):
        out = evaluate(idx, n, value_table_budget([0], None, [1], n))
        assert isinstance(out, Halted) and out.value == (0 if n == 0 else 1)


def test_value_table_empty_prefix():
    idx = encode(value_table_program([], const=0))
    for n in range(4):
        out = evaluate(idx, n, value_table_budget([], 0, None, n))
        assert isinstance(out, Halted) and out.value == 0


def test_value_table_longer_word_on_reference_interpreter(monkeypatch):
    # 30 instructions, past the emission ceiling: built with it lifted
    monkeypatch.setattr(numbering, "EMIT_LENGTH_CEILING", 30)
    prog = value_table_program([5], word=[2, 0, 1])
    want = [5, 2, 0, 1, 2, 0, 1, 2]
    for n, v in enumerate(want):
        budget = value_table_budget([5], None, [2, 0, 1], n)
        out = reference_program_outcome(monkeypatch, prog, n, budget)
        assert isinstance(out, Halted) and out.value == v
        assert evaluate(prog, n, budget) == out


def test_value_table_argument_validation():
    with pytest.raises(ValueError):
        value_table_program([1])
    with pytest.raises(ValueError):
        value_table_program([1], const=0, word=[1])
    with pytest.raises(ValueError):
        value_table_program([1], word=[])


# ---------------------------------------------------------------------------
# stride tupling

# component bodies read the cell index from R2 and write R0
_ZERO_BODY = parse_program("Z 0")
_ID_BODY = parse_program("T 2 0")
_SUCC_BODY = parse_program("T 2 0\nS 0")
_PLUS2_BODY = parse_program("T 2 0\nS 0\nS 0")


@pytest.mark.parametrize(
    "bodies,component",
    [
        ([_ZERO_BODY, _ID_BODY], [lambda n: 0, lambda n: n]),
        ([_ID_BODY, _SUCC_BODY], [lambda n: n, lambda n: n + 1]),
        ([_ZERO_BODY, _ID_BODY, _PLUS2_BODY],
         [lambda n: 0, lambda n: n, lambda n: n + 2]),
    ],
)
def test_stride_tuple_interleaves_components(bodies, component):
    prog = stride_tuple_program(bodies)
    s = len(bodies)
    assert len(prog) == 2 * s + 2 + sum(len(b) for b in bodies) + (s - 1)
    for m in range(4 * s):
        out = evaluate(prog, m, stride_tuple_budget(s, m, 4))
        assert isinstance(out, Halted)
        assert out.value == component[m % s](m // s)


def test_stride_tuple_single_body_is_a_prelude():
    prog = stride_tuple_program([_SUCC_BODY])
    assert len(prog) == 1 + len(_SUCC_BODY)
    for n in range(12):
        out = evaluate(prog, n, stride_tuple_budget(1, n, 4))
        assert out == Halted(n + 1, out.steps)


def test_stride_tuple_rejects_unsafe_bodies():
    with pytest.raises(ValueError):
        stride_tuple_program([])
    with pytest.raises(ValueError):
        stride_tuple_program([parse_program("J 0 0 0")])
    with pytest.raises(ValueError):
        stride_tuple_program([parse_program("S 1")])
    with pytest.raises(ValueError):
        stride_tuple_program([parse_program("T 0 2")])


def test_stride_extraction_composes_with_affine_precomposition():
    idx = encode(stride_tuple_program([_ZERO_BODY, _SUCC_BODY]))
    for which, f in ((0, lambda n: 0), (1, lambda n: n + 1)):
        comp = precompose_affine(idx, 2, which)
        for n in range(8):
            inner = stride_tuple_budget(2, 2 * n + which, 4)
            out = evaluate(comp, n, affine_budget(2, which, n, inner))
            assert out == Halted(f(n), out.steps)


@given(st.integers(1, 3), st.integers(0, 40))
@settings(max_examples=40, deadline=None)
def test_stride_tuple_budget_is_sufficient(s, m):
    bodies = [_ZERO_BODY, _SUCC_BODY, _PLUS2_BODY][:s]
    out = evaluate(stride_tuple_program(bodies), m, stride_tuple_budget(s, m, 4))
    assert isinstance(out, Halted)
