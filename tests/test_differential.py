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
however often it is emitted; a handle (a composed program, a
dovetailer) runs as its index does and is encoded only when its index is
read, and the chain guard keeps the re-entrance cut exact for a handle
of an EVB program.  A free program (no EVB, and no comparison reads its
input) runs once for all its inputs, and each of them must still get
the reference's outcome.
"""

import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from godellab import numbering
from godellab.corpus import gen_families
from godellab.learners import LearnerConfig, amalgamation_learn, bounded_min_learner
from godellab.numbering import (
    BudgetExceeded,
    Copy,
    Emitted,
    Halted,
    Inc,
    Loop,
    clear_eval_cache,
    compile_loop,
    decode,
    encode,
    evaluate,
    first_value_program,
    index_of,
    parse_program,
    precompose_affine,
    run_program,
    s_const,
)
from godellab.oracles import OracleConfig
from godellab.spaces import Constant, Generated, Literal, Periodic, compile_literal
from machine_reference import (
    OffChain,
    reference,
    reference_outcome,
    reference_program_outcome,
)


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
# free programs: no EVB, and no comparison reads the input, so one run
# answers every input

_FREE_INPUTS = [*range(17), 10**6]


def _free(program):
    """Whether the evaluator answers every input of `program` from one run."""
    return numbering._Record(numbering._lower(program.codes)).path is not None


def test_free_programs_match_reference_cold_and_warm():
    # the free indices as the evaluator classes them, so a rule that lets
    # in a program it should not brings that program's cells in here
    free = [i for i in range(2001) if _free(decode(i))]
    assert len(free) > 1000 and {0, 7, 9} <= set(free)
    cells, want = [], []
    for i in free:
        for n in _FREE_INPUTS:
            # the machine is deterministic, so one reference run at the top
            # budget gives the outcome under each smaller one
            top = reference_outcome(i, n, 10**4)
            budgets = {400, 10**4}
            if isinstance(top, Halted):
                budgets |= {top.steps - 1, top.steps} - {0, -1}
            for b in sorted(budgets):
                cells.append((i, n, b))
                halts = isinstance(top, Halted) and b >= top.steps
                want.append(top if halts else BudgetExceeded(b))
    rng = random.Random(22)
    for _ in range(2):
        order = list(range(len(cells)))
        rng.shuffle(order)
        clear_eval_cache()
        for _ in ("cold", "warm"):
            got = {k: evaluate(*cells[k]) for k in order}
            assert [got[k] for k in range(len(cells))] == want


def test_free_programs_by_hand(monkeypatch):
    runs = []
    real = numbering._run

    def counting(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(numbering, "_run", counting)
    # divergent on every input, proven by one run
    index = encode(parse_program("S 1\nJ 0 0 0"))
    clear_eval_cache()
    assert [evaluate(index, n, 400) for n in _FREE_INPUTS] == [BudgetExceeded(400)] * 18
    assert len(runs) == 1 and numbering._records[index].path == numbering._NEVER
    # the value is the input (d = 1), also on input 0
    index = encode(parse_program("T 0 3\nZ 0\nT 3 0"))
    assert [evaluate(index, n, 10) for n in _FREE_INPUTS] == [Halted(n, 3) for n in _FREE_INPUTS]
    assert numbering._records[index].path == (0, 3)
    # a constant (d = 0), under a budget short of its steps and then as
    # one outcome every input's entry holds
    index = encode(parse_program("Z 0\nS 0"))
    assert evaluate(index, 5, 1) == BudgetExceeded(1)
    assert evaluate(index, 5, 10) == Halted(1, 2)
    path = numbering._records[index].path
    assert path == Halted(1, 2)
    assert all(evaluate(index, n, 10) is path for n in _FREE_INPUTS)
    assert len(runs) == 4
    # the input reaches a comparison, directly or through a T, with every
    # slot a control slot or (with an S 3 besides) not
    for lines in ("J 0 1 2\nS 0", "T 0 1\nJ 1 2 0"):
        assert not _free(parse_program(lines))
        assert not _free(parse_program(lines + "\nS 3"))
    # an EVB's value can be any function of its argument
    assert not any(_free(decode(i)) for i in _EVB_INDICES)
    assert not _free(parse_program("EVB 1 0 2 0\nJ 0 0 0"))


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
    "precompose_affine": lambda: [precompose_affine(2, 1, 3).index,
                                  precompose_affine(_stride_tuples()[0], 2, 1).index],
    "dovetailer": lambda: [operator.index(learned.index) for learned in (
        amalgamation_learn(_ZERO, 1, _LEARN), bounded_min_learner(Generated(0, 1), 2, _LEARN))],
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
    assert decoded and max(decoded) < composed.index.bit_length()

    decoded.clear()
    learned = amalgamation_learn(_ZERO, 1, _LEARN)
    index = operator.index(learned.index)
    assert learned.verified and index > _LEARN.oracle.index_bound
    assert max(decoded, default=0) < index.bit_length()


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
    # the successor's least index is 2: both learners dovetail the same
    # set, under one record, and encode it only when the index is read
    succ = Generated(2, 40)
    amalgamated = amalgamation_learn(succ, 2, _LEARN)
    shrunk = bounded_min_learner(succ, 2, _LEARN)
    assert amalgamated.verified and shrunk.verified
    assert encodes == []
    assert amalgamated.index.program == shrunk.index.program
    assert shrunk.index.program in numbering._records
    index = operator.index(amalgamated.index)
    assert operator.index(shrunk.index) == index == encode(first_value_program([2]))
    assert encodes.count(index) == 1
    clear_eval_cache()
    assert operator.index(bounded_min_learner(succ, 2, _LEARN).index) == index
    assert encodes.count(index) == 2


def test_precompose_affine_twice_encodes_once(encodes):
    clear_eval_cache()
    tupled = _stride_tuples()[0]
    composed = precompose_affine(tupled, 2, 1).index
    assert precompose_affine(tupled, 2, 1).index == composed
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


# ---------------------------------------------------------------------------
# a composed program is encoded when its index is read


def _in_either_order(handle, runs, handle_first):
    """The outcomes of `runs` through the handle and through its index."""
    if handle_first:
        via_handle = [evaluate(handle, n, budget) for n, budget in runs]
        via_index = [evaluate(handle.index, n, budget) for n, budget in runs]
    else:
        via_index = [evaluate(handle.index, n, budget) for n, budget in runs]
        via_handle = [evaluate(handle, n, budget) for n, budget in runs]
    return via_handle, via_index


@pytest.mark.parametrize("handle_first", [True, False], ids=["handle-first", "index-first"])
def test_a_handle_runs_as_its_index_in_either_order(handle_first):
    tupled = _stride_tuples()[0]
    runs = [(n, budget) for budget in (4, 5000, 9) for n in range(6)]
    for suffix, mul, add in [(tupled, 2, 1), (tupled, 2, 0), (2, 1, 3), (_JUMPS, 3, 2)]:
        clear_eval_cache()
        handle = precompose_affine(suffix, mul, add)
        via_handle, via_index = _in_either_order(handle, runs, handle_first)
        # a fresh, unmemoized run of the decoded index; with no EVB no run
        # reads the chain, which run_program leaves off at the top
        program = decode(handle.index)
        assert not any(m % 5 == 4 for m in program.codes)
        assert via_handle == via_index == [run_program(program, n, budget)
                                           for n, budget in runs]
        assert any(isinstance(out, Halted) for out in via_handle)


@pytest.mark.parametrize("handle_first", [True, False], ids=["handle-first", "index-first"])
def test_a_dovetailer_handle_runs_as_its_index_in_either_order(handle_first):
    # the dovetailer of [1] holds an EVB, so its handle puts its program on
    # the chain; the reference decodes the 19,529-bit index cold
    program = first_value_program([1])
    index = encode(program)
    runs = [(n, budget) for budget in (3, 40, 5000) for n in range(6)]
    clear_eval_cache()
    handle = Emitted(program)
    record = numbering._records[program]
    via_handle, via_index = _in_either_order(handle, runs, handle_first)
    assert via_handle == via_index == [reference_outcome(index, n, budget)
                                       for n, budget in runs]
    assert any(isinstance(out, Halted) for out in via_handle)
    # reading the index moved the record under it
    assert [key for key, rec in numbering._records.items() if rec is record] == [index]
    assert numbering._index_cache == {program: index}


def test_a_dovetailer_over_an_evb_member_runs_as_the_reference(monkeypatch):
    # its member decode(11) is EVB 0 0 0 0, whose runs nest under the
    # handle's program on the chain, and on input 11 calls itself.  The
    # index has 28,196,724 bits (about 10 s to encode), so the handle is
    # checked against the reference run of the program; no register
    # reaches the index, so leaving the top off the chain changes nothing
    program = first_value_program([11])
    runs = [(n, budget) for budget in (3, 40, 500) for n in (0, 1, 2, 3, 11, 12)]
    want = [reference_program_outcome(monkeypatch, program, n, budget)
            for n, budget in runs]
    assert want == [run_program(program, n, budget) for n, budget in runs]
    assert any(isinstance(out, Halted) for out in want)
    for member_first in (True, False):
        clear_eval_cache()
        if member_first:
            for n, budget in runs:
                evaluate(11, n, budget)
        handle = Emitted(program)
        assert [evaluate(handle, n, budget) for n, budget in runs] == want
        assert not numbering._index_cache


def test_reading_the_index_moves_the_record_under_it():
    clear_eval_cache()
    tupled = _stride_tuples()[0]
    handle = precompose_affine(tupled, 2, 1)
    record = numbering._records[handle.program]
    out = evaluate(handle, 3, 5000)
    assert record.outcomes == {3: out}
    assert handle.program not in numbering._index_cache
    index = handle.index
    assert [key for key, rec in numbering._records.items() if rec is record] == [index]
    # a second handle of the program runs under the same record
    again = precompose_affine(tupled, 2, 1)
    assert evaluate(again, 3, 5000) is out
    assert evaluate(again, 4, 5000) is record.outcomes[4]
    assert handle.program not in numbering._records
    clear_eval_cache()
    assert not numbering._records


def test_a_composition_with_no_macro_keeps_the_suffix_record(encodes):
    # gstar_g's width-1 answers: mul 1, add 0 emits the suffix itself
    clear_eval_cache()
    out = evaluate(_JUMPS, 3, 100)
    record = numbering._records[_JUMPS]
    handle = precompose_affine(_JUMPS, 1, 0)
    assert evaluate(handle, 3, 100) is out
    assert [key for key, rec in numbering._records.items() if rec is record] == [_JUMPS]
    assert handle.program not in numbering._records
    assert handle.index == _JUMPS
    assert encodes == []


def test_only_a_short_program_with_an_evb_is_encoded_at_emission(encodes):
    # decode(11) is EVB 0 0 0 0; after 6 S 0 it is 7 instructions long,
    # short enough to encode at once, and after 7 (or the 7-instruction
    # mul 2, add 1 macro) it is deferred, its index at least 2^82
    assert numbering._DEFER_LENGTH == 8
    assert numbering._DEFER_FLOOR == numbering.encode_list([0] * 8) >= 2 ** 82
    clear_eval_cache()
    short = precompose_affine(11, 1, 6)
    assert len(short.program) == 7 and len(encodes) == 1
    assert short.program not in numbering._records
    assert numbering._records[encodes[0]].evb
    for mul, add in [(1, 7), (2, 1)]:
        encodes.clear()
        handle = precompose_affine(11, mul, add)
        assert len(handle.program) == 8 and encodes == []
        assert numbering._records[handle.program].evb
        outs = [evaluate(handle, n, 60) for n in range(4)]
        assert encodes == []
        assert outs == [reference_outcome(handle.index, n, 60) for n in range(4)]
    outs = [evaluate(short, n, 60) for n in range(4)]
    assert outs == [reference_outcome(short.index, n, 60) for n in range(4)]


def test_the_chain_guard_cuts_a_deferred_program_at_the_floor(monkeypatch):
    # with the floor lowered to 1, the one instruction EVB 0 0 0 0
    # (decode(11)) is deferred, so its handle keys the chain by the program
    # and only the guard sees that it calls itself on input 11
    monkeypatch.setattr(numbering, "_DEFER_LENGTH", 1)
    monkeypatch.setattr(numbering, "_DEFER_FLOOR", numbering.encode_list([0]))
    clear_eval_cache()
    handle = Emitted(decode(11))
    assert handle.program in numbering._records and not numbering._index_cache
    assert evaluate(handle, 11, 100) == evaluate(11, 11, 100) == Halted(0, 1)
    assert run_program(decode(11), 11, 100) == Halted(1, 1)
    # the guard's first encode moves the record under the index, while the
    # chain still holds the program for the second call
    twice = parse_program("EVB 0 0 0 1\nEVB 0 0 0 2\nT 2 0")
    index = encode(twice)
    clear_eval_cache()
    handle = Emitted(twice)
    assert evaluate(handle, index, 100) == Halted(0, 3) == \
        reference_outcome(index, index, 100)
    assert numbering._index_cache == {twice: index}
    assert twice not in numbering._records


def test_the_chain_guard_reaches_the_real_floor():
    # an 8-instruction program run on its own index, which is past the
    # floor: both of its self-calls are cut, as when it runs as its index
    twice = parse_program("EVB 0 0 0 1\nEVB 0 0 0 2\nT 2 0" + "\nZ 3" * 5)
    index = encode(twice)
    assert index >= numbering._DEFER_FLOOR
    clear_eval_cache()
    handle = Emitted(twice)
    assert not numbering._index_cache
    out = evaluate(handle, index, 100)
    assert out == Halted(0, 8) == reference_outcome(index, index, 100)
    assert numbering._index_cache == {twice: index}
    assert evaluate(index, index, 100) == _cold(index, index, 100) == out


def test_a_handle_encodes_through_the_module_encode(encodes):
    # godelbench/tracer.py counts `numbering.encode.bits` by rebinding
    # numbering's module-global `encode`, as `encodes` does here, so a
    # handle that encoded any other way would drop out of the count
    clear_eval_cache()
    tupled = _stride_tuples()[0]
    encodes.clear()
    handle = precompose_affine(tupled, 2, 1)
    assert encodes == []
    first = handle.index
    assert encodes == [first]
    assert handle.index == first
    assert encodes == [first]
