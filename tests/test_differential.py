"""The evaluator against the independent reference interpreter.

`godelbench/reference.py` shares no code with godellab: its own
unpairing, decoding and step loop, EVB with the same cuts, and no memo,
lowering or divergence proof.  Every outcome of the cached evaluator
must equal its outcome, whatever the cache held before.  The hand-made
growth cases loop while one register grows and halt only once that
growth reaches a comparison, through each way a register can feed one;
a divergence proof that misses any of those ways reports them as
divergent.  The control slots that proof compares are checked without
running anything, for every index up to 20,000 and the growth cases,
against a closure computed from the reference's decoding.  The hand-made cut cases and the cut fuzz reach the
re-entrance and depth cuts of EVB, whose outcomes the memo stores under
the EVB chain they read.  The emitted cases check that an index
the lab builds arrives with the lowering its decoding would give, runs
as the reference runs it, is never decoded again, and is encoded once
however often it is emitted; a program the lab builds (a composed
program, a dovetailer) runs as its index does and is encoded only when
its index is read.  Each program has one record, reached by its codes
and by its index alike, so the re-entrance cut, which compares records,
is exact for a program with an EVB that runs on its own index.  A free program (no EVB, and no comparison reads its
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
    Copy,
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
    Program,
    parse_program,
    precompose_affine,
    s_const,
)
from godellab.oracles import OracleConfig
from godellab.spaces import Constant, Generated, Literal, Periodic, compile_literal
from machine_reference import reference, reference_outcome, reference_program_outcome


def _cold(index, arg, budget):
    clear_eval_cache()
    return evaluate(index, arg, budget)


def _direct(index, arg, budget):
    """The cold run of the decoded program, keyed by its codes."""
    return _cold(decode(index), arg, budget)


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
    assert [_direct(*cell) for cell in cells] == want
    order = list(range(len(cells)))
    rng.shuffle(order)
    clear_eval_cache()
    warm = {k: evaluate(*cells[k]) for k in order}
    assert [warm[k] for k in range(len(cells))] == want
    _assert_one_record_per_program()


def _assert_one_record_per_program():
    """Each index keys the record of the codes it decodes to, and each
    record with its index set sits under that index, the list code of the
    codes that key it; no two codes share a record."""
    records = numbering._records
    by_codes = {key: rec for key, rec in records.items() if type(key) is tuple}
    assert len({id(rec) for rec in by_codes.values()}) == len(by_codes)
    for key, rec in records.items():
        assert type(key) in (int, tuple)
        if type(key) is int:
            assert records[tuple(numbering.decode_list(key))] is rec
    for codes, rec in by_codes.items():
        if rec.index is not None:
            assert rec.index == numbering.encode_list(codes)
            assert records[rec.index] is rec


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(_programs, min_size=1, max_size=4), st.integers(1, 40),
       st.randoms(use_true_random=False))
def test_each_program_has_one_record_however_it_is_reached(programs, budget, rng):
    # a shuffled mix of runs of the index, runs of the program and reads
    # of the index; the inputs include the indices, which the EVBs call
    indices = [encode(p) for p in programs]
    inputs = sorted({0, 1, *indices})
    calls = [(how, k, n) for how in ("index", "program") for k in range(len(programs))
             for n in inputs] + [("index_of", k, None) for k in range(len(programs))]
    rng.shuffle(calls)
    clear_eval_cache()
    for how, k, n in calls:
        if how == "index_of":
            assert index_of(programs[k]) == indices[k]
        else:
            out = evaluate(indices[k] if how == "index" else programs[k], n, budget)
            assert out == reference_outcome(indices[k], n, budget)
    _assert_one_record_per_program()


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
        assert [_direct(*cell) for cell in cells] == want
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
    # them, and each decoded program runs as its index; all must equal the
    # reference, cell by cell
    cells = [(i, n) for i in range(2001) for n in range(5)]
    want = [reference_outcome(i, n, cap) for i, n in cells]
    clear_eval_cache()
    assert [evaluate(i, n, cap) for i, n in cells] == want
    assert [evaluate(i, n, cap) for i, n in cells] == want
    programs = [decode(i) for i in range(2001)]
    assert [evaluate(programs[i], n, cap) for i, n in cells] == want


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
                want.append(top if halts else None)
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
    assert [evaluate(index, n, 400) for n in _FREE_INPUTS] == [None] * 18
    assert len(runs) == 1 and numbering._records[index].path == numbering._NEVER
    # the value is the input (d = 1), also on input 0
    index = encode(parse_program("T 0 3\nZ 0\nT 3 0"))
    assert [evaluate(index, n, 10) for n in _FREE_INPUTS] == [Halted(n, 3) for n in _FREE_INPUTS]
    assert numbering._records[index].path == (0, 3)
    # a constant (d = 0), under a budget short of its steps and then as
    # one outcome every input's entry holds
    index = encode(parse_program("Z 0\nS 0"))
    assert evaluate(index, 5, 1) is None
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
            assert _cold(index, arg, budget) == want
            assert _cold(program, arg, budget) == want
        assert evaluate(index, arg, want.steps - 1) is None


def _reference_control(program):
    """(named registers, control registers) of a program as the reference
    decodes it: both operands of each J a b k with a != b, then, to a fixed
    point, the sources of each T or EVB that writes a control register."""
    named, control = {0}, set()
    for op, *args in program:
        named.update(args[:2] if op == "J" else args)
        if op == "J" and args[0] != args[1]:
            control.update(args[:2])
    grew = True
    while grew:
        grew = False
        for op, *args in program:
            if op in ("T", "EVB") and args[-1] in control \
                    and not control.issuperset(args[:-1]):
                control.update(args[:-1])
                grew = True
    return named, control


def test_control_slots_are_the_closure_of_the_reference_decoding():
    # every _NEVER entry the evaluator stores rests on the control slots:
    # a run whose pc and control slots repeat is proven never to halt.  The
    # reference checks outcomes only up to its budget, so the slots are
    # checked here without running anything, against a closure of the
    # reference's own decoding.  A closure that skips an EVB's budget
    # register agrees on every index up to 20,000; the growth cases, whose
    # EVBs write control registers, tell it apart
    programs = [(numbering.decode_list(i), reference.decode_program(i))
                for i in range(20001)]
    programs += [(program.codes, reference.decode_program(encode(program)))
                 for program, _ in GROWTH_CASES]
    wrong = []
    for codes, decoded in programs:
        named, control = _reference_control(decoded)
        _, count, largest, ctrl = numbering._lower(codes)
        order = sorted(named)
        got = set(order) if ctrl is None else {order[s] for s in ctrl}
        if (count, largest, got) != (len(order), order[-1], control):
            wrong.append((decoded, ctrl, sorted(control)))
    assert wrong == []


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
    above = frozenset({(records[_TWO_NESTED_CALLS], 11)})
    assert records[11].outcomes == {(0, above): Halted(int(limit > 2), 1)}
    if limit > 2:
        assert records[0].outcomes == {0: Halted(0, 0)}
    else:
        assert 0 not in records and () not in records


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
    above = frozenset({(numbering._records[_FOUR_CALLS], 11)})
    assert set(numbering._records[11].outcomes) == {11, (11, above)}


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
    "precompose_affine": lambda: [operator.index(precompose_affine(2, 1, 3)),
                                  operator.index(precompose_affine(_stride_tuples()[0], 2, 1))],
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
    assert decoded and max(decoded) < operator.index(composed).bit_length()

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
    # each emitted index is held by its program's record, also under the index
    read = [(key, rec) for key, rec in numbering._records.items()
            if type(key) is tuple and rec.index is not None]
    assert read
    for codes, record in read:
        assert record.index == encode(Program(codes))
        assert numbering._records[record.index] is record
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
    assert amalgamated.index == shrunk.index
    assert numbering._records[shrunk.index.codes].index is None
    index = operator.index(amalgamated.index)
    assert operator.index(shrunk.index) == index == encode(first_value_program([2]))
    assert encodes.count(index) == 1
    clear_eval_cache()
    assert operator.index(bounded_min_learner(succ, 2, _LEARN).index) == index
    assert encodes.count(index) == 2


def test_precompose_affine_twice_encodes_once(encodes):
    clear_eval_cache()
    tupled = _stride_tuples()[0]
    composed = operator.index(precompose_affine(tupled, 2, 1))
    assert operator.index(precompose_affine(tupled, 2, 1)) == composed
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
    assert numbering._records[program.codes] is record
    # decoding gave the record its index, so reading it encodes nothing
    assert index_of(program) == index
    assert encodes == []
    assert numbering._records[index] is record
    assert numbering._records[program.codes] is record
    # a program that ran before its index was decoded: decoding finds the
    # program's record by its codes and adds the index to it
    clear_eval_cache()
    out = evaluate(program, 0, 10)
    record = numbering._records[program.codes]
    assert evaluate(index, 0, 10) is out
    assert numbering._records[index] is record and record.index == index
    assert index_of(program) == index
    assert encodes == []
    assert [key for key, rec in numbering._records.items() if rec is record] == [
        program.codes, index]


# ---------------------------------------------------------------------------
# a program the lab builds runs without its index, which is encoded when
# something reads it


def _in_either_order(program, runs, program_first):
    """The outcomes of `runs` through the program and through its index."""
    if program_first:
        via_program = [evaluate(program, n, budget) for n, budget in runs]
        via_index = [evaluate(operator.index(program), n, budget) for n, budget in runs]
    else:
        via_index = [evaluate(operator.index(program), n, budget) for n, budget in runs]
        via_program = [evaluate(program, n, budget) for n, budget in runs]
    return via_program, via_index


@pytest.mark.parametrize("program_first", [True, False], ids=["program-first", "index-first"])
def test_a_composed_program_runs_as_its_index_in_either_order(program_first):
    tupled = _stride_tuples()[0]
    runs = [(n, budget) for budget in (4, 5000, 9) for n in range(6)]
    for suffix, mul, add in [(tupled, 2, 1), (tupled, 2, 0), (2, 1, 3), (_JUMPS, 3, 2)]:
        clear_eval_cache()
        program = precompose_affine(suffix, mul, add)
        via_program, via_index = _in_either_order(program, runs, program_first)
        # each run cold, of the program the index decodes to; with no EVB
        # no run reads the chain
        decoded = decode(operator.index(program))
        assert decoded == program
        assert not any(m % 5 == 4 for m in decoded.codes)
        assert via_program == via_index == [_cold(decoded, n, budget) for n, budget in runs]
        assert any(isinstance(out, Halted) for out in via_program)


@pytest.mark.parametrize("program_first", [True, False], ids=["program-first", "index-first"])
def test_a_dovetailer_program_runs_as_its_index_in_either_order(program_first):
    # the dovetailer of [1] holds an EVB, so it puts itself on the chain
    # as a program; the reference decodes the 19,529-bit index cold
    program = first_value_program([1])
    index = encode(program)
    runs = [(n, budget) for budget in (3, 40, 5000) for n in range(6)]
    clear_eval_cache()
    via_program, via_index = _in_either_order(program, runs, program_first)
    assert via_program == via_index == [reference_outcome(index, n, budget)
                                        for n, budget in runs]
    assert any(isinstance(out, Halted) for out in via_program)
    # one record, under the program's codes and under the index it read
    record = numbering._records[program.codes]
    assert record.index == index
    assert [key for key, rec in numbering._records.items() if rec is record] == [
        program.codes, index]


def test_a_dovetailer_over_an_evb_member_runs_as_the_reference(monkeypatch):
    # its member decode(11) is EVB 0 0 0 0, whose runs nest under the
    # program on the chain, and on input 11 calls itself.  The index has
    # 28,196,724 bits (about 10 s to encode), so the program is checked
    # against the reference run of its codes, and its index is never read
    program = first_value_program([11])
    runs = [(n, budget) for budget in (3, 40, 500) for n in (0, 1, 2, 3, 11, 12)]
    want = [reference_program_outcome(monkeypatch, program, n, budget)
            for n, budget in runs]
    assert any(isinstance(out, Halted) for out in want)
    for member_first in (True, False):
        clear_eval_cache()
        if member_first:
            for n, budget in runs:
                evaluate(11, n, budget)
        assert [evaluate(program, n, budget) for n, budget in runs] == want
        assert numbering._records[program.codes].index is None


def test_reading_the_index_stores_the_record_under_it_too():
    clear_eval_cache()
    tupled = _stride_tuples()[0]
    program = precompose_affine(tupled, 2, 1)
    out = evaluate(program, 3, 5000)
    record = numbering._records[program.codes]
    assert record.outcomes == {3: out} and record.index is None
    index = operator.index(program)
    assert record.index == index
    assert [key for key, rec in numbering._records.items() if rec is record] == [
        program.codes, index]
    # the index and an equal program built again run under the same record
    assert evaluate(index, 3, 5000) is out
    again = precompose_affine(tupled, 2, 1)
    assert again is not program
    assert evaluate(again, 4, 5000) is evaluate(index, 4, 5000) is record.outcomes[4]
    clear_eval_cache()
    assert not numbering._records


def test_a_composition_with_no_macro_keeps_the_suffix_record(encodes):
    # gstar_g's width-1 answers: mul 1, add 0 emits the suffix itself
    clear_eval_cache()
    out = evaluate(_JUMPS, 3, 100)
    record = numbering._records[_JUMPS]
    program = precompose_affine(_JUMPS, 1, 0)
    assert program == decode(_JUMPS)
    assert numbering._records[program.codes] is record
    assert evaluate(program, 3, 100) is out
    assert operator.index(program) == _JUMPS
    assert encodes == []


def test_a_composition_with_a_macro_keys_no_record_by_its_suffix():
    tupled = _stride_tuples()[0]
    clear_eval_cache()
    program = precompose_affine(tupled, 2, 1)
    evaluate(program, 3, 5000)
    records = numbering._records
    # the suffix's record, decoded for its registers, is its own; the
    # composed program has another
    assert records[decode(tupled).codes] is records[tupled]
    assert records[program.codes] is not records[tupled]
    assert set(records) == {tupled, decode(tupled).codes, program.codes}


# EVB programs of 1, 3 and 8 instructions whose self-calls on their own
# index are cut: decode(11), and two EVB calls of R0 on R0 that return
# the second call's result, bare and padded
_TWICE = "EVB 0 0 0 1\nEVB 0 0 0 2\nT 2 0"
_SELF_CALLERS = {1: decode(11), 3: parse_program(_TWICE),
                 8: parse_program(_TWICE + "\nZ 3" * 5)}


@pytest.mark.parametrize("program_first", [True, False], ids=["program-first", "index-first"])
@pytest.mark.parametrize("length", sorted(_SELF_CALLERS))
def test_an_evb_program_on_its_own_index_is_cut_as_its_index_is(length, program_first, encodes):
    # run from its codes the program is on the chain as its record, which
    # its index decodes to, so each self-call is cut as in the reference,
    # in either order and with its index never encoded
    program = _SELF_CALLERS[length]
    assert len(program) == length
    index = encode(program)
    runs = [(n, budget) for budget in (100, 1) for n in (index, 0, 11)]
    want = [reference_outcome(index, n, budget) for n, budget in runs]
    assert want[0] == Halted(0, length)
    clear_eval_cache()
    sides = [program, index] if program_first else [index, program]
    first, second = [[evaluate(side, n, budget) for n, budget in runs] for side in sides]
    assert first == second == want
    assert numbering._records[program.codes] is numbering._records[index]
    assert encodes == []


def test_a_program_encodes_through_the_module_encode(encodes):
    # godelbench/tracer.py counts `numbering.encode.bits` by rebinding
    # numbering's module-global `encode`, as `encodes` does here, so a
    # program that encoded any other way would drop out of the count
    clear_eval_cache()
    tupled = _stride_tuples()[0]
    encodes.clear()
    program = precompose_affine(tupled, 2, 1)
    evaluate(program, 3, 5000)
    assert encodes == []
    first = operator.index(program)
    assert encodes == [first]
    assert operator.index(program) == first
    assert encodes == [first]
