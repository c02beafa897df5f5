"""The evaluator against the independent reference interpreter.

`godelbench/reference.py` shares no code with godellab: its own
unpairing, decoding and step loop, EVB with the same cuts, and no memo,
lowering or divergence proof.  Every outcome of the cached evaluator
must equal its outcome, whatever the cache held before.  The hand-made
growth cases loop while one register grows and halt only once that
growth reaches a comparison, through each way a register can feed one;
a divergence proof that misses any of those ways reports them as
divergent.  The hand-made cut cases and the cut fuzz reach the
re-entrance and depth cuts of EVB, whose outcomes the memo stores under
the EVB chain they read.  The emitted cases check that an index
the lab builds arrives with the lowering its decoding would give, runs
as the reference runs it, is never decoded again, and is encoded once
however often it is emitted.
"""

import pytest
from hypothesis import given, settings, strategies as st

from godellab import numbering
from godellab.corpus import gen_families
from godellab.learners import LearnerConfig, amalgamation_learn, bounded_min_learner
from godellab.numbering import (
    BudgetExceeded,
    Copy,
    Halted,
    Inc,
    Loop,
    clear_eval_cache,
    compile_loop,
    decode,
    encode,
    evaluate,
    index_of,
    parse_program,
    precompose_affine,
    run_program,
    s_const,
)
from godellab.oracles import OracleConfig
from godellab.spaces import Constant, Generated, Literal, Periodic, compile_literal
from machine_reference import OffChain, reference, reference_outcome


def _direct(index, arg, budget):
    return run_program(decode(index), arg, budget)


def _off_chain(index, arg, budget):
    """The reference run with its top level off the EVB chain, which is
    what run_program runs."""
    return reference_outcome(index, arg, budget, OffChain())


def _cold(index, arg, budget):
    clear_eval_cache()
    return evaluate(index, arg, budget)


# ---------------------------------------------------------------------------
# seeded fuzz: small EVB-heavy programs with backward jumps

_REG = st.integers(0, 3)


def _instructions(length):
    target = st.integers(0, length)
    evb = st.tuples(_REG, _REG, _REG, _REG).map(lambda a: "EVB %d %d %d %d" % a)
    return st.one_of(
        _REG.map("Z {}".format),
        _REG.map("S {}".format),
        st.tuples(_REG, _REG).map(lambda a: "T %d %d" % a),
        st.tuples(_REG, _REG, target).map(lambda a: "J %d %d %d" % a),
        evb,
        evb,
    )


_programs = st.integers(1, 7).flatmap(
    lambda n: st.lists(_instructions(n), min_size=n, max_size=n)
).map(lambda lines: parse_program("\n".join(lines)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_programs, min_size=1, max_size=3), st.integers(1, 40),
       st.randoms(use_true_random=False))
def test_evaluator_matches_reference_cold_warm_and_direct(programs, budget, rng):
    cells = [(encode(p), arg, budget) for p in programs for arg in range(3)]
    want = [reference_outcome(*cell) for cell in cells]
    assert [_cold(*cell) for cell in cells] == want
    assert [_direct(*cell) for cell in cells] == [_off_chain(*cell) for cell in cells]
    order = list(range(len(cells)))
    rng.shuffle(order)
    clear_eval_cache()
    warm = {k: evaluate(*cells[k]) for k in order}
    assert [warm[k] for k in range(len(cells))] == want


# indices 0..2000 whose programs hold an EVB, a code of tag 4 (556 of
# them); the reference has no divergence proof, so its cost grows with
# the budgets these indices load, and they are kept small
_EVB_INDICES = [i for i in range(2001)
                if any(m % 5 == 4 for m in decode(i).codes)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_EVB_INDICES), min_size=3, max_size=3),
       st.integers(0, 2000), st.integers(1, 40), st.randoms(use_true_random=False))
def test_cuts_are_the_same_warm_cold_direct_and_in_the_reference(evbs, other, budget, rng):
    # with both depth limits at 2, each EVB run's calls to its siblings
    # (its inputs include their indices) reach both cuts; the warm pass
    # first runs the siblings on each other at the top of the chain,
    # where nothing above them is cut, and then every cell in a shuffled
    # order
    indices = evbs + [other]
    cells = [(i, n, budget) for i in indices for n in sorted({*indices, 0, 1, 2})]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numbering, "_DEPTH_LIMIT", 2)
        mp.setattr(reference, "DEPTH_LIMIT", 2)
        want = [reference_outcome(*cell) for cell in cells]
        assert [_cold(*cell) for cell in cells] == want
        assert [_direct(*cell) for cell in cells] == [_off_chain(*cell) for cell in cells]
        order = list(range(len(cells)))
        rng.shuffle(order)
        clear_eval_cache()
        for i in indices:
            for n in indices:
                evaluate(i, n, budget)
        warm = {k: evaluate(*cells[k]) for k in order}
    clear_eval_cache()
    assert [warm[k] for k in range(len(cells))] == want


@pytest.mark.parametrize("cap", [200, 10**4])
def test_universe_cells_match_reference_cold_and_warm(cap):
    # a warm pass reads the memo's stored outcomes where the cold one built
    # them; both must equal the reference, cell by cell
    cells = [(i, n) for i in range(2001) for n in range(5)]
    want = [reference_outcome(i, n, cap) for i, n in cells]
    clear_eval_cache()
    assert [evaluate(i, n, cap) for i, n in cells] == want
    assert [evaluate(i, n, cap) for i, n in cells] == want


# ---------------------------------------------------------------------------
# growth that reaches a comparison, one case per way of reaching it

# R1 counts up and is copied into R2, which is compared with the input
# and then cleared, so R2 alone repeats while R1 grows
_THROUGH_T = parse_program("S 1\nT 1 2\nJ 2 0 5\nZ 2\nJ 0 0 0")

# R0 holds the index of an inner program that halts in 6 steps; the
# outer loop raises the EVB budget R2 until the inner run halts
_INNER_SIX_STEPS = encode(parse_program("\n".join(["S 0"] * 6)))
_THROUGH_EVB_BUDGET = parse_program("S 2\nEVB 0 1 2 3\nJ 3 1 0\nT 3 0")

# the EVB index R1 walks up from the input; under budget 1 on input 0,
# indices 47..55 do not halt and index 56 ([Z 2]) does
_THROUGH_EVB_INDEX = parse_program("T 0 1\nS 3\nEVB 1 2 3 4\nS 1\nJ 4 2 2")

# R0 holds the index of an inner program that halts only on input 4,
# in 5 steps (it loops between its two jumps otherwise); the outer loop
# raises the EVB argument R2 under budget 5 until it gets there
_INNER_FOUR_ONLY = encode(parse_program("\n".join(["S 1"] * 4 + ["J 0 1 6", "J 0 0 4"])))
_THROUGH_EVB_ARGUMENT = parse_program("\n".join(["S 3"] * 5 + ["EVB 0 2 3 4", "S 2", "J 4 1 5", "T 4 0"]))

GROWTH_CASES = [
    (_THROUGH_T, 10),
    (_THROUGH_EVB_BUDGET, _INNER_SIX_STEPS),
    (_THROUGH_EVB_INDEX, 47),
    (_THROUGH_EVB_ARGUMENT, _INNER_FOUR_ONLY),
]


def test_growth_that_reaches_a_comparison_halts():
    for program, arg in GROWTH_CASES:
        index = encode(program)
        want = reference_outcome(index, arg, 1000)
        assert isinstance(want, Halted)
        assert want.steps > 16  # outlives the first snapshot comparisons
        for budget in (want.steps, 1000, 10**6):
            clear_eval_cache()
            assert evaluate(index, arg, budget) == want
            assert run_program(program, arg, budget) == want
        assert evaluate(index, arg, want.steps - 1) == BudgetExceeded(want.steps - 1)



# ---------------------------------------------------------------------------
# EVB cuts, on a cold cache


def test_reentrant_evb_call_is_cut():
    # index 11 is EVB 0 0 0 0: on input 11 it calls itself on 11; the cut
    # run is stored, under its input alone at the top of the chain
    assert reference_outcome(11, 11, 100) == Halted(0, 1)
    out = _cold(11, 11, 100)
    assert out == Halted(0, 1)
    assert numbering._records[11].outcomes == {11: out}


# on input 11 the run calls index 11 on 0 under budget 5, which calls
# index 0 on 0: the third run on the chain, cut when the limit is 2
_TWO_NESTED_CALLS = encode(parse_program("\n".join(["S 2"] * 5 + ["EVB 0 1 2 0"])))


@pytest.mark.parametrize("limit, want", [(2, Halted(1, 6)), (3, Halted(2, 6)),
                                         (64, Halted(2, 6))])
def test_depth_cut_matches_reference(monkeypatch, limit, want):
    monkeypatch.setattr(numbering, "_DEPTH_LIMIT", limit)
    monkeypatch.setattr(reference, "DEPTH_LIMIT", limit)
    assert reference_outcome(_TWO_NESTED_CALLS, 11, 100) == want
    out = _cold(_TWO_NESTED_CALLS, 11, 100)
    assert out == want
    records = numbering._records
    assert records[_TWO_NESTED_CALLS].outcomes == {11: out}
    # index 11 below the top is stored under its input and the chain
    # above it; index 0, cut at limit 2, is never run
    above = frozenset({(_TWO_NESTED_CALLS, 11)})
    assert records[11].outcomes == {(0, above): Halted(int(limit > 2), 1)}
    if limit > 2:
        assert records[0].outcomes == {0: Halted(0, 0)}
    else:
        assert 0 not in records


def test_depth_cut_is_the_same_warm_and_cold(monkeypatch):
    # (11, 0) under budget 5 is stored from the top of the chain, with
    # index 0 run below it uncut; nested under _TWO_NESTED_CALLS the same
    # call reaches index 0 on the third level and is cut
    monkeypatch.setattr(numbering, "_DEPTH_LIMIT", 2)
    monkeypatch.setattr(reference, "DEPTH_LIMIT", 2)
    cold = _cold(_TWO_NESTED_CALLS, 11, 100)
    clear_eval_cache()
    evaluate(11, 0, 5)
    warm = evaluate(_TWO_NESTED_CALLS, 11, 100)
    assert warm == cold == reference_outcome(_TWO_NESTED_CALLS, 11, 100)


# on input 11, four EVB calls of index 11 (EVB 0 0 0 0) on 11 under
# budget 11, each cut inside as re-entrant
_FOUR_CALLS = encode(parse_program("\n".join(["EVB 0 0 0 1"] * 4)))


def test_a_nested_call_repeated_under_one_chain_runs_once(monkeypatch):
    runs = []
    real = numbering._run

    def counting(code, *rest):
        runs.append(code)
        return real(code, *rest)

    monkeypatch.setattr(numbering, "_run", counting)
    clear_eval_cache()
    assert evaluate(_FOUR_CALLS, 11, 100) == Halted(11, 4) == \
        reference_outcome(_FOUR_CALLS, 11, 100)
    outer, inner = numbering._records[_FOUR_CALLS].code, numbering._records[11].code
    assert runs == [outer, inner]
    runs.clear()
    assert evaluate(_FOUR_CALLS, 11, 100) == Halted(11, 4)
    assert runs == []
    # at the top of the chain, index 11 reads another chain: a new entry
    assert evaluate(11, 11, 100) == Halted(0, 1)
    assert runs == [inner]
    assert set(numbering._records[11].outcomes) == {11, (11, frozenset({(_FOUR_CALLS, 11)}))}


# ---------------------------------------------------------------------------
# emitted indices arrive lowered

_LEARN = LearnerConfig(OracleConfig(cap=200, window=12, index_bound=60),
                       stability_window=4, max_steps=500)
_ZERO = Literal((), Constant(0))


def _stride_tuples():
    """The 9-instruction stride tuples of two components (3,051-3,058 bits)."""
    return [e.descriptor.index for e in gen_families(36, 3)
            if e.width == 2 and len(decode(e.descriptor.index)) == 9]


# a backward jump and a jump past the end, both moved past the s_const
# macro: R1 counts up until it meets the input, which halts unchanged
_JUMPS = encode(parse_program("J 0 1 4\nS 1\nJ 0 0 0"))

EMITTERS = {
    "s_const": lambda: [s_const(2, 1), s_const(encode(parse_program("T 0 1\nS 1\nT 1 0")), 0),
                        s_const(_JUMPS, 0)],
    "precompose_affine": lambda: [precompose_affine(2, 1, 3),
                                  precompose_affine(_stride_tuples()[0], 2, 1)],
    "dovetailer": lambda: [amalgamation_learn(_ZERO, 1, _LEARN).index,
                           bounded_min_learner(Generated(0, 1), 2, _LEARN).index],
    "gen_families": lambda: [e.descriptor.index for e in gen_families(8, 5)],
    "compile_literal": lambda: [compile_literal(Literal((1,), Constant(0))),
                                compile_literal(Literal((), Periodic((0, 1))))],
    "compile_loop": lambda: [compile_loop([Loop(0, (Inc(1), Inc(1))), Copy(1, 0)])],
}


def _lowering(record):
    return record.code, record.nregs, record.top, record.ctrl


@pytest.mark.parametrize("emitter", sorted(EMITTERS))
def test_emitted_lowering_is_the_decoded_one(emitter):
    clear_eval_cache()
    indices = EMITTERS[emitter]()
    seeded = {i: numbering._records[i] for i in indices}
    for record in numbering._records.values():
        record.outcomes.clear()
    warm = {i: [evaluate(i, n, 5000) for n in range(9)] for i in indices}
    assert all(numbering._records[i] is seeded[i] for i in indices)
    clear_eval_cache()
    for i in indices:
        assert i not in numbering._records
        assert [evaluate(i, n, 5000) for n in range(9)] == warm[i]
        assert _lowering(numbering._records[i]) == _lowering(seeded[i])
        assert _lowering(seeded[i]) == numbering._lower(numbering.decode_list(i))
        # the reference's cost grows with the index's bits
        inputs = range(9) if i.bit_length() < 120_000 else range(3)
        assert warm[i][:len(inputs)] == [reference_outcome(i, n, 5000) for n in inputs]
    assert any(isinstance(out, Halted) for outs in warm.values() for out in outs)


def test_s_const_moves_suffix_jumps_as_the_reference_reads_them():
    # the check above runs the reference on this 437,559-bit index for
    # inputs 0..2; this one also checks the value the suffix gives
    index = s_const(_JUMPS, 0)
    clear_eval_cache()
    for n in range(4):
        want = reference_outcome(_JUMPS, numbering.pair(0, n), 5000)
        out = evaluate(index, n, 5000)
        assert out == reference_outcome(index, n, 5000)
        assert isinstance(out, Halted) and out.value == want.value


def test_emitted_indices_are_not_decoded(monkeypatch):
    clear_eval_cache()
    tupled = _stride_tuples()[0]
    decoded = []
    real = numbering.decode_list

    def recording(n):
        decoded.append(n.bit_length())
        return real(n)

    monkeypatch.setattr(numbering, "decode_list", recording)
    composed = precompose_affine(tupled, 2, 1)
    outs = [evaluate(composed, n, 5000) for n in range(9)]
    assert all(isinstance(out, Halted) for out in outs)
    assert decoded and max(decoded) < composed.bit_length()

    decoded.clear()
    learned = amalgamation_learn(_ZERO, 1, _LEARN)
    assert learned.verified and learned.index > _LEARN.oracle.index_bound
    assert max(decoded, default=0) < learned.index.bit_length()


# ---------------------------------------------------------------------------
# emitted programs are encoded once


@pytest.fixture
def encodes(monkeypatch):
    """The indices `numbering.encode` returns, in call order."""
    made = []
    real = numbering.encode

    def counting(program):
        made.append(real(program))
        return made[-1]

    monkeypatch.setattr(numbering, "encode", counting)
    return made


@pytest.mark.parametrize("emitter", sorted(EMITTERS))
def test_index_memo_holds_encode_and_is_read_on_a_second_emission(emitter, encodes):
    clear_eval_cache()
    first = EMITTERS[emitter]()
    assert numbering._index_cache
    for program, index in numbering._index_cache.items():
        assert index == encode(program)
    encodes.clear()
    assert EMITTERS[emitter]() == first
    assert encodes == []


def test_one_dovetailer_for_both_promise_learners_is_encoded_once(encodes):
    clear_eval_cache()
    # the successor's least index is 2: both learners dovetail the same set
    succ = Generated(2, 40)
    amalgamated = amalgamation_learn(succ, 2, _LEARN)
    shrunk = bounded_min_learner(succ, 2, _LEARN)
    assert amalgamated.verified and shrunk.verified
    assert amalgamated.index == shrunk.index
    assert encodes.count(shrunk.index) == 1
    clear_eval_cache()
    assert bounded_min_learner(succ, 2, _LEARN).index == shrunk.index
    assert encodes.count(shrunk.index) == 2


def test_precompose_affine_twice_encodes_once(encodes):
    clear_eval_cache()
    tupled = _stride_tuples()[0]
    composed = precompose_affine(tupled, 2, 1)
    assert precompose_affine(tupled, 2, 1) == composed
    assert encodes.count(composed) == 1


def test_an_equal_program_hits_the_memo_and_keeps_the_lowering(encodes):
    clear_eval_cache()
    text = "T 2 0\nS 0\nJ 0 1 4\nS 0"
    first, second = parse_program(text), parse_program(text)
    assert first is not second
    index = index_of(first)
    record = numbering._records[index]
    assert index_of(second) == index == encode(second)
    assert encodes == [index]
    assert numbering._records[index] is record


def test_index_of_keeps_a_lowering_made_by_decoding(encodes):
    clear_eval_cache()
    program = parse_program("S 0\nS 0")
    index = encode(program)
    evaluate(index, 0, 10)
    record = numbering._records[index]
    assert index_of(program) == index
    assert encodes == [index]
    assert numbering._records[index] is record
