"""Total numbering of a small register machine, plus a budgeted evaluator.

The machine has five instructions over natural-valued registers:

    Z r        R[r] := 0
    S r        R[r] := R[r] + 1
    T a b      R[b] := R[a]
    J a b k    if R[a] == R[b] jump to instruction k, else fall through
    EVB i n s o   budgeted self-interpretation, see `evaluate`

A program is a finite instruction list.  Every natural number decodes to
exactly one program (index 0 is the empty program), so the index space is
a total numbering of all machine programs.  Input and output live in R0;
all other registers start at 0.  A jump target at or beyond the program
length halts the machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isqrt
from typing import Iterable, Sequence, Union

Nat = int
ProgramIndex = int

# ---------------------------------------------------------------------------
# Cantor pairing


def pair(x: Nat, y: Nat) -> Nat:
    """Bijection N x N -> N: pair(x, y) = (x+y)(x+y+1)/2 + y."""
    if x < 0 or y < 0:
        raise ValueError("pair needs naturals")
    s = x + y
    # s * s squares one object, which CPython does faster than s * (s + 1)
    return (s * s + s >> 1) + y


def unpair(n: Nat) -> tuple[Nat, Nat]:
    """Inverse of `pair`."""
    if n < 0:
        raise ValueError("unpair needs a natural")
    w = (isqrt(8 * n + 1) - 1) // 2
    y = n - w * (w + 1) // 2
    return w - y, y


def encode_list(xs: Sequence[Nat]) -> Nat:
    """List code: empty -> 0, cons(x, t) -> pair(x, code(t)) + 1."""
    acc = 0
    for x in reversed(xs):
        acc = pair(x, acc) + 1
    return acc


def decode_list(n: Nat) -> list[Nat]:
    out = []
    while n:
        x, n = unpair(n - 1)
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# Instructions and programs

_OPS = ("Z", "S", "T", "J", "EVB")
# argument count by op tag
_ARITY = (1, 1, 2, 3, 4)


def _code(tag: int, args: Sequence[Nat]) -> Nat:
    """Inverse of `_fields`: the code of the instruction _OPS[tag] args."""
    payload = args[-1]
    for a in reversed(args[:-1]):
        payload = pair(a, payload)
    return 5 * payload + tag


def _fields(m: Nat) -> tuple[int, tuple[Nat, ...]]:
    """(op tag, args) of the instruction with code m; the tag indexes _OPS."""
    payload, tag = divmod(m, 5)
    if tag <= 1:
        return tag, (payload,)
    if tag == 2:
        return tag, unpair(payload)
    a, rest = unpair(payload)
    if tag == 3:
        return tag, (a,) + unpair(rest)
    b, rest = unpair(rest)
    return tag, (a, b) + unpair(rest)


@dataclass(frozen=True, slots=True)
class Program:
    """Its instruction codes, whose list code is its index.  Every natural
    number is one instruction's code (`_fields` reads it), so any tuple of
    naturals is a program; `parse_program` and `format_program` give the
    text form."""

    codes: tuple[Nat, ...] = ()

    def __post_init__(self):
        if self.codes and min(self.codes) < 0:
            raise ValueError("instruction codes must be naturals")

    def __len__(self) -> int:
        return len(self.codes)


def encode(program: Program) -> ProgramIndex:
    return encode_list(program.codes)


def decode(index: ProgramIndex) -> Program:
    return Program(tuple(decode_list(index)))


def format_program(program: Program) -> str:
    """One instruction per line, e.g. ``J 0 1 4``."""
    return "\n".join(f"{_OPS[tag]} {' '.join(map(str, args))}"
                     for tag, args in map(_fields, program.codes))


def parse_program(text: str) -> Program:
    """The program `format_program` writes as `text`.  Blank lines and
    lines starting with # are skipped, an op is read in any case, and
    its arguments are ASCII decimal digits; an error names its line."""
    codes = []
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        op, args = parts[0].upper(), parts[1:]
        if not parts[0].isascii() or op not in _OPS:
            raise ValueError(f"line {lineno}: unknown op {parts[0]!r}")
        tag = _OPS.index(op)
        if len(args) != _ARITY[tag]:
            raise ValueError(f"line {lineno}: {op} takes {_ARITY[tag]} args")
        if not all(a.isascii() and a.isdigit() for a in args):
            raise ValueError(f"line {lineno}: {op} args must be natural numbers")
        codes.append(_code(tag, tuple(map(int, args))))
    return Program(tuple(codes))


# ---------------------------------------------------------------------------
# Evaluation outcomes


@dataclass(frozen=True, slots=True)
class Halted:
    value: Nat
    steps: Nat


@dataclass(frozen=True, slots=True)
class BudgetExceeded:
    budget: Nat


EvalOutcome = Union[Halted, BudgetExceeded]

# ---------------------------------------------------------------------------
# Budgeted evaluator.
#
# One core serves both `evaluate` and `run_program`: lowering turns a list
# of instruction codes into tuples over densely renumbered registers, and
# `_run` is the only machine step loop.
#
# Every instruction costs one step, EVB included: the inner evaluation is
# free for the caller and runs under the budget read from R[s].
#
# Each index has one record (`_Record`): its lowering, whether its code
# holds an EVB, the path of a free program (below), and an entry per
# completed run: the `Halted` that `_run` built, which a hit within its
# steps returns itself (outcomes are immutable); `_NEVER` (infinity) for a
# run proven never to halt; or the int count of steps explored without a
# halt.
#
# Re-entrant self-interpretation (an EVB chain reaching an (index, input)
# pair that is already being evaluated) has no consistent solution, so such
# inner calls are treated as divergent, as are chains nested deeper than
# _DEPTH_LIMIT.  Both cuts are independent of the outer budget, which keeps
# budget monotonicity intact.
#
# An entry is keyed by what its run reads besides index and budget: its
# input and, at an EVB, the chain of (index, input) pairs of the EVB runs
# above, which both cuts read.  So an EVB program's entry is keyed by
# (input, chain) below the top of the chain, any other by input: every
# completed run is stored, exact for every caller, and a nested call
# repeated under one chain is a hit.  A miss hashes the index once, and an
# EVB program's run once more for its place on the chain.
#
# Divergence is also proven outright.  The next pc and the next values of
# the control slots (the registers a comparison can read, directly or
# through T and EVB writes; see `_lower`) depend on nothing but the pc and
# the control slots, so a run whose pc and control slots repeat never
# halts, however the other registers grow.  `_run` looks for such a repeat
# at doubling step counts.
#
# An input-oblivious program runs once for every input.  Call a record
# free when it holds no EVB and slot 0 is not a control slot.  Then no
# comparison reads a value derived from the input, so the pc sequence,
# the step count, halting and a divergence proof are the same on every
# input, and every register holds d*arg + c with d in {0, 1}: Z, S and T
# keep that form, and c is at most the steps taken, since only S adds and
# each S is one step.  One `_run` at a probe input p above its budget
# therefore gives d = (value >= p) and c = value - d*p.  The record keeps
# that run as its path: a halt with d = 0 as the probe's `Halted`, which
# is every input's outcome, and with d = 1 as the pair (c, steps); a
# proof as _NEVER; or the int count of steps explored.  A miss on a free
# record is answered from the path when the path covers its budget, and
# otherwise one probe run under that budget replaces the path.  The
# per-input entry is stored as for any run, so a hit returns the stored
# `Halted` (for d = 0 the one object every input shares).  An input
# answered from a proven path stores _NEVER even under a budget short of
# the step where the proof closed, since the proof holds on it too.
#
# Indices the lab builds itself arrive lowered, by one of two emission
# paths, and both lower the instruction codes the Program holds.
# `index_of` (the macro of `s_const`, `LoopCompiler.compile`, and the
# corpus' and literal compiler's encodings) encodes at once.  An `Emitted`
# handle (`precompose_affine`, the promise learners' dovetailer) defers the
# encode: its record is keyed by the program until something reads the
# index (a reduction witness, the offset_h mutant), and `index_of` then
# moves the record under the index, so the program's entries live under
# one key.  Either way is exact: the index is the list code of those codes,
# so the stored lowering is the one a cache miss would compute by decoding,
# and no outcome or entry can change; only the encode or the unpairing of a
# number of up to 734,059 bits is skipped.  `index_of` also memoizes the
# index by program value, so a program emitted twice is encoded once, and
# equal handles share one record.
#
# A handle keyed by its program is exact for an EVB-free program, whose
# runs never read the chain.  An EVB program's handle puts the program on
# the chain, where the re-entrance cut compares register values with
# indices.  The cut stays exact through one fact: the list code grows with
# each code and with the length, so a program of _DEFER_LENGTH (8) or more
# instructions has an index of at least _DEFER_FLOOR, the code of as many
# zero codes (83 bits).  A handle of a shorter EVB program is encoded when
# it is made, which is cheap, and an EVB step whose index register reaches
# the floor encodes the program on the chain and compares (`_reenters`);
# below it the check costs one comparison.  It reads the chain, not the
# record store, because its own `index_of` moves the record while the chain
# still holds the program.  An entry stored under a chain that holds the
# program stays exact after the move, though a run under the index's chain
# does not hit it; such entries are left in place until
# `clear_eval_cache()`.  `encode` itself stays a pure codec and fills no
# cache.  Indices the lab did not build (corpus files, universe scans,
# command-line arguments) are still decoded on first use.

_DEPTH_LIMIT = 64
_NEVER = inf
_DEFER_LENGTH = 8
_DEFER_FLOOR = encode_list((0,) * _DEFER_LENGTH)


class _Record:
    """`_lower`'s four fields, whether the code holds an EVB, entries by
    key, and the path: None unless the program is free (no EVB, and its
    input reaches no comparison), else the run every input shares (a
    `Halted`, a (c, steps) pair, _NEVER or the steps explored), with -1
    for no run yet, since an EVB may run a program under budget 0."""

    __slots__ = ("code", "nregs", "top", "ctrl", "evb", "path", "outcomes")

    def __init__(self, lowered: tuple):
        self.code, self.nregs, self.top, self.ctrl = lowered
        self.evb = any(ins[0] == 4 for ins in self.code)
        self.path = None if self.evb or self.ctrl is None or 0 in self.ctrl else -1
        self.outcomes: dict[int | tuple, Halted | int | float] = {}


# index -> its record; lowered on first use by decoding, and by `index_of`
# for emitted indices, with the same lowering either way; `index_of` leaves
# a record that is already there in place.  An `Emitted` handle's program
# keys its record until its index is encoded.
_records: dict[int | Program, _Record] = {}
# emitted program -> encode(program): the index memo of `index_of`
_index_cache: dict[Program, ProgramIndex] = {}


def clear_eval_cache() -> None:
    _records.clear()
    _index_cache.clear()


def _lower(codes: Sequence[Nat]) -> tuple:
    """(code, register count, largest register name, control slots) of the
    program with instruction codes `codes`.

    Registers are renumbered densely in name order, so R0 stays slot 0 and
    the register file has one slot per named register, however large the
    names are.  Jump targets are kept as they are.

    The control slots are the slots whose values can reach a comparison:
    both operands of every conditional jump (J a b k with a != b), closed
    backwards through writes, so the source of a T into a control slot and
    the index, argument and budget registers of an EVB into one are control
    slots too.  They are a sorted tuple, or None when they are every slot.
    """
    fields = [_fields(m) for m in codes]
    names = {0}
    for tag, args in fields:
        names.update(args[:2] if tag == 3 else args)
    order = sorted(names)
    slot = {r: i for i, r in enumerate(order)}
    code = []
    control = set()
    # reads[d]: the slots read by a T or EVB that writes slot d
    reads = [[] for _ in order]
    for tag, args in fields:
        if tag == 3:
            a, b, k = args
            code.append((tag, slot[a], slot[b], k))
            if a != b:
                control.update((slot[a], slot[b]))
        else:
            args = tuple(slot[r] for r in args)
            code.append((tag,) + args)
            if tag >= 2:
                reads[args[-1]].extend(args[:-1])
    work = list(control)
    while work:
        for src in reads[work.pop()]:
            if src not in control:
                control.add(src)
                work.append(src)
    ctrl = None if len(control) == len(order) else tuple(sorted(control))
    return tuple(code), len(order), order[-1], ctrl


def _record(index: int) -> _Record:
    rec = _records.get(index)
    if rec is None:
        rec = _records[index] = _Record(_lower(decode_list(index)))
    return rec


def index_of(program: Program) -> ProgramIndex:
    """encode(program), with its lowering stored for the evaluator, so an
    index the lab emits is never decoded again, and memoized by program
    value, so a program the lab emits twice is encoded once.  The first
    encode moves the record an `Emitted` handle keyed by the program
    under the index, entries and all."""
    index = _index_cache.get(program)
    if index is None:
        index = _index_cache[program] = encode(program)
        deferred = _records.pop(program, None)
        if deferred is not None:
            _records.setdefault(index, deferred)
    if index not in _records:
        _records[index] = _Record(_lower(program.codes))
    return index


class Emitted:
    """An emitted program whose index is encoded on the first read of
    `.index` (or `operator.index`); until then `evaluate` runs it under a
    record keyed by the program.  A program with an EVB and fewer than
    _DEFER_LENGTH instructions is encoded at once (see the evaluator
    comment above)."""

    __slots__ = ("program",)

    def __init__(self, program: Program):
        self.program = program
        self._key()  # lowers the program, and encodes a short one with an EVB

    def _key(self) -> ProgramIndex | Program:
        """The key of the program's record, lowered if it has none."""
        program = self.program
        key = _index_cache.get(program, program)
        if key not in _records:
            record = _records[key] = _Record(_lower(program.codes))
            if record.evb and len(program) < _DEFER_LENGTH:
                return index_of(program)
        return key

    def __index__(self) -> ProgramIndex:
        return index_of(self.program)

    index = property(__index__)


def evaluate(index: ProgramIndex | Emitted, arg: Nat, budget: Nat) -> EvalOutcome:
    """Run decode(index) on `arg` for at most `budget` steps.

    Returns Halted(value, steps) with steps <= budget, or
    BudgetExceeded(budget).  Deterministic and monotone in the budget:
    a Halted outcome is reproduced unchanged under any larger budget.
    One hash of `index` fetches its record; its entry for `arg` (the Halted,
    never-halts, or the steps explored) answers a hit, and a miss stores one.
    An `Emitted` handle runs its program without encoding it.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    try:
        if arg < 0 or index < 0:
            raise ValueError("index and argument must be naturals")
    except TypeError:
        # a handle does not compare with 0 (arg was checked first); taking
        # it here, not by a type test up front, costs the int path nothing
        if type(index) is not Emitted:
            raise
        index = index._key()
    return _eval(index, arg, budget)


def _eval(index: int, arg: int, budget: int, chain=frozenset()) -> EvalOutcome:
    """`chain` holds the (index, input) pairs of the EVB runs above."""
    rec = _records.get(index)
    if rec is None:
        rec = _records[index] = _Record(_lower(decode_list(index)))
    key = (arg, chain) if rec.evb and chain else arg
    ent = rec.outcomes.get(key)
    if ent is not None:
        if type(ent) is Halted:
            return ent if budget >= ent.steps else BudgetExceeded(budget)
        if budget <= ent:
            return BudgetExceeded(budget)
    if rec.path is not None:
        out, rec.outcomes[key] = _follow(rec, arg, budget)
        return out
    if rec.evb:
        chain = chain | {(index, arg)}
    out, rec.outcomes[key] = _run(rec.code, rec.nregs, rec.ctrl, arg, budget, chain)
    return out


def _follow(rec: _Record, arg: int, budget: int) -> tuple:
    """A free record's run on `arg`, read from its path: (outcome, entry)."""
    path = rec.path
    if type(path) is int and budget > path:
        probe = budget + 1
        out, path = _run(rec.code, rec.nregs, rec.ctrl, probe, budget, frozenset())
        if type(out) is Halted:
            path = out if out.value < probe else (out.value - probe, out.steps)
        rec.path = path
    if type(path) is Halted:
        out = path
    elif type(path) is tuple:
        out = Halted(arg + path[0], path[1])
    else:
        return BudgetExceeded(budget), path if path == _NEVER else budget
    if budget < out.steps:
        return BudgetExceeded(budget), budget
    return out, out


def _run(code: tuple, nregs: int, ctrl, arg: int, budget: int, chain: frozenset) -> tuple:
    """The machine step loop: (outcome, memo entry).

    The pc and the control slots `ctrl` (every slot when None) are
    snapshotted at doubling step counts.  When both repeat, the run
    provably never halts, whatever the other registers hold: the outcome
    is BudgetExceeded(budget) with the memo entry _NEVER.
    """
    regs = [0] * nregs
    regs[0] = arg
    pc = 0
    steps = 0
    ncode = len(code)
    snap_pc = -1
    snap = None
    next_snap = 8
    while True:
        if pc >= ncode:
            out = Halted(regs[0], steps)
            return out, out
        if steps >= budget:
            return BudgetExceeded(budget), budget
        ins = code[pc]
        tag = ins[0]
        if tag == 0:
            regs[ins[1]] = 0
            pc += 1
        elif tag == 1:
            regs[ins[1]] += 1
            pc += 1
        elif tag == 2:
            regs[ins[2]] = regs[ins[1]]
            pc += 1
        elif tag == 3:
            pc = ins[3] if regs[ins[1]] == regs[ins[2]] else pc + 1
        else:
            sub = (regs[ins[1]], regs[ins[2]])
            if (sub in chain or len(chain) >= _DEPTH_LIMIT
                    or sub[0] >= _DEFER_FLOOR and _reenters(sub, chain)):
                regs[ins[4]] = 0
            else:
                out = _eval(sub[0], sub[1], regs[ins[3]], chain)
                regs[ins[4]] = out.value + 1 if type(out) is Halted else 0
            pc += 1
        steps += 1
        if pc == snap_pc and (regs if ctrl is None else [regs[c] for c in ctrl]) == snap:
            return BudgetExceeded(budget), _NEVER
        if steps == next_snap:
            snap_pc = pc
            snap = regs.copy() if ctrl is None else [regs[c] for c in ctrl]
            next_snap <<= 1


def _reenters(sub: tuple, chain: frozenset) -> bool:
    """Whether a handle's program on `chain` is sub's index on sub's input.
    It is encoded through `index_of`, and stays on the chain as a program
    after its record moves under the index."""
    index, arg = sub
    return any(type(key) is Program and a == arg and index_of(key) == index
               for key, a in chain)


def run_program(program: Program, arg: Nat, budget: Nat) -> EvalOutcome:
    """Run a Program object directly, without going through its index.

    Semantics agree with evaluate(encode(program), arg, budget), with one
    exception: the top-level run is neither memoized nor on the EVB chain,
    so an EVB call back to (encode(program), arg) is evaluated instead of
    cut as re-entrant.  decode(11) is the single instruction EVB 0 0 0 0:
    run_program(decode(11), 11, 100) is Halted(1, 1), while
    evaluate(11, 11, 100) is Halted(0, 1).  The point is that wide programs
    (long unary loads) stay cheap because the astronomically large index
    is never materialized.  EVB subcalls share the evaluator cache as usual.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if arg < 0:
        raise ValueError("argument must be a natural")
    code, nregs, _, ctrl = _lower(program.codes)
    out, _ = _run(code, nregs, ctrl, arg, budget, frozenset())
    return out


# ---------------------------------------------------------------------------
# A small assembler for emitted programs.  Jump targets may be label strings;
# a label placed after the last instruction resolves past the end (halt).


class _Asm:
    def __init__(self):
        # instruction codes, and (a, b, label) for a jump to a label
        self._items: list = []
        self._labels: dict[str, int] = {}

    def label(self, name: str) -> None:
        if name in self._labels:
            raise ValueError(f"duplicate label {name}")
        self._labels[name] = len(self._items)

    def emit(self, op: str, *args) -> None:
        if op == "J" and isinstance(args[2], str):
            self._items.append(args)
        else:
            self._items.append(_code(_OPS.index(op), args))

    def copy(self, program: Program) -> None:
        self._items.extend(program.codes)

    def assemble(self) -> Program:
        out = []
        for m in self._items:
            if type(m) is tuple:
                a, b, k = m
                if k not in self._labels:
                    raise ValueError(f"unknown label {k}")
                m = _code(3, (a, b, self._labels[k]))
            out.append(m)
        return Program(tuple(out))


# ---------------------------------------------------------------------------
# Index transformers.
#
# The list code squares roughly once per instruction, so an index has about
# 2^L digits for an L-instruction program.  Emitted programs therefore have
# a hard desk-scale length ceiling; beyond it the index is mathematically
# fine but cannot be materialized.  Macros use scratch registers above the
# suffix's register space, so no zeroing pass is needed before the original
# program runs.

EMIT_LENGTH_CEILING = 22


def _check_emit_length(n: int, what: str) -> None:
    if n > EMIT_LENGTH_CEILING:
        raise ValueError(
            f"{what} needs {n} instructions; indices beyond "
            f"{EMIT_LENGTH_CEILING} instructions are not representable at desk scale"
        )


def _prepend(macro: Program, suffix: Program) -> Program:
    codes = list(macro.codes)
    for m in suffix.codes:
        if m % 5 == 3:
            a, b, k = _fields(m)[1]
            m = _code(3, (a, b, k + len(macro)))
        codes.append(m)
    return Program(tuple(codes))


def s_const(index: ProgramIndex, const: Nat) -> ProgramIndex:
    """Index of a program computing n -> decode(index)(pair(const, n)).

    Prepends a macro that replaces R0 by pair(const, R0) using the identity
    pair(c, n) = T_c + sum_{k<n} (c + 2 + k), with T_c triangular.
    """
    if const < 0:
        raise ValueError("const must be a natural")
    suffix = decode(index)
    _check_emit_length((const + 2) + const * (const + 1) // 2 + 10 + len(suffix),
                       f"s_const(..., {const})")
    base = _record(index).top + 1
    k, b, acc, i = base, base + 1, base + 2, base + 3
    a = _Asm()
    for _ in range(const + 2):
        a.emit("S", b)
    for _ in range(const * (const + 1) // 2):
        a.emit("S", acc)
    a.label("lp")
    a.emit("J", k, 0, "fin")
    a.emit("Z", i)
    a.label("ad")
    a.emit("J", i, b, "nx")
    a.emit("S", acc)
    a.emit("S", i)
    a.emit("J", 0, 0, "ad")
    a.label("nx")
    a.emit("S", b)
    a.emit("S", k)
    a.emit("J", 0, 0, "lp")
    a.label("fin")
    a.emit("T", acc, 0)
    return index_of(_prepend(a.assemble(), suffix))


def s_const_budget(const: Nat, arg: Nat, inner: Nat) -> Nat:
    """Budget sufficient for evaluate(s_const(i, const), arg, .) given the
    original program halts within `inner` steps on pair(const, arg)."""
    return (2 * arg * arg + 4 * arg * const + 12 * arg
            + const * const + const + 8 + inner)


def precompose_affine(index: ProgramIndex, mul: Nat, add: Nat) -> Emitted:
    """Handle of the program computing n -> decode(index)(mul * n + add),
    whose index (over 200,000 bits for a 15-instruction suffix) is
    encoded only when read."""
    if mul < 0 or add < 0:
        raise ValueError("mul and add must be naturals")
    suffix = decode(index)
    # with no macro (mul 1, add 0) the handle's program is the suffix, which
    # then keeps the one record its index has
    _index_cache[suffix] = index
    _check_emit_length((add if mul == 1 else mul + add + 4) + len(suffix),
                       f"precompose_affine(..., {mul}, {add})")
    a = _Asm()
    if mul == 1:
        for _ in range(add):
            a.emit("S", 0)
    else:
        base = _record(index).top + 1
        k, acc = base, base + 1
        a.label("lp")
        a.emit("J", k, 0, "done")
        for _ in range(mul):
            a.emit("S", acc)
        a.emit("S", k)
        a.emit("J", 0, 0, "lp")
        a.label("done")
        for _ in range(add):
            a.emit("S", acc)
        a.emit("T", acc, 0)
    return Emitted(_prepend(a.assemble(), suffix))


def affine_budget(mul: Nat, add: Nat, arg: Nat, inner: Nat) -> Nat:
    if mul == 1:
        return add + inner
    return arg * (mul + 3) + add + 8 + inner


# ---------------------------------------------------------------------------
# First-value dovetailing over a fixed member set: the emitted program runs
# every member on the input under round-robin budgets 1, 2, 3, ... and halts
# with the first value any member produces.  Member constants are loaded as
# gaps in one register per round, so members must be strictly increasing and
# the emitted length is max(members) + 3*len(members) + 10.


def first_value_program(members: Sequence[ProgramIndex]) -> Program:
    if not members:
        raise ValueError("need at least one member")
    if any(b <= a for a, b in zip(members, members[1:])) or members[0] < 0:
        raise ValueError("members must be strictly increasing naturals")
    single = len(members) == 1
    length = members[-1] + 11 if single else members[-1] + 3 * len(members) + 10
    _check_emit_length(length, f"first-value program over {len(members)} members")
    a = _Asm()
    # R0 input, R1 inner budget, R2 evb result, R3 pinned zero,
    # R4/R5 decrement scratch, R6 member cursor
    if single:
        for _ in range(members[0]):
            a.emit("S", 6)
        a.emit("S", 1)
        a.label("round")
        a.emit("EVB", 6, 0, 1, 2)
        a.emit("J", 2, 3, "cont")
        # hit: R2 = value+1, count R4 up to value
        a.emit("S", 5)
        a.label("dec")
        a.emit("J", 5, 2, "fin")
        a.emit("S", 4)
        a.emit("S", 5)
        a.emit("J", 0, 0, "dec")
        a.label("cont")
        a.emit("S", 1)
        a.emit("J", 0, 0, "round")
        a.label("fin")
        a.emit("T", 4, 0)
        return a.assemble()
    a.emit("S", 1)
    a.label("round")
    prev = 0
    for t, j in enumerate(members):
        for _ in range(j - prev):
            a.emit("S", 6)
        prev = j
        a.emit("EVB", 6, 0, 1, 2)
        a.emit("J", 2, 3, f"nx{t}")
        a.emit("J", 0, 0, "out")
        a.label(f"nx{t}")
    a.emit("Z", 6)
    a.emit("S", 1)
    a.emit("J", 0, 0, "round")
    a.label("out")
    a.emit("S", 5)
    a.label("dec")
    a.emit("J", 5, 2, "fin")
    a.emit("S", 4)
    a.emit("S", 5)
    a.emit("J", 0, 0, "dec")
    a.label("fin")
    a.emit("T", 4, 0)
    return a.assemble()


def first_value_budget(members: Sequence[ProgramIndex], inner_steps: Nat, value_bound: Nat) -> Nat:
    """Budget sufficient when some member halts within `inner_steps` steps
    producing a value at most `value_bound`."""
    per_round = max(members) + 2 * len(members) + 3
    return (inner_steps + 1) * per_round + 4 * value_bound + 10


# ---------------------------------------------------------------------------
# A total sub-language: straight-line register programs with bounded loops.
# Every program halts; the compiler records the indices it emits, and
# `run_loop` is the reference its machine code is checked against.


@dataclass(frozen=True)
class Inc:
    reg: int


@dataclass(frozen=True)
class ZeroR:
    reg: int


@dataclass(frozen=True)
class Copy:
    src: int
    dst: int


@dataclass(frozen=True)
class Loop:
    reg: int
    body: tuple


LoopStmt = Union[Inc, ZeroR, Copy, Loop]


def _loop_regs(stmts: Iterable[LoopStmt]) -> set[int]:
    regs: set[int] = set()
    for st in stmts:
        if isinstance(st, Copy):
            regs.update((st.src, st.dst))
        else:
            regs.add(st.reg)
            if isinstance(st, Loop):
                regs |= _loop_regs(st.body)
    return regs


def run_loop(stmts: Sequence[LoopStmt], arg: Nat) -> Nat:
    """Reference interpreter; the loop count is fixed at loop entry."""
    regs: dict[int, int] = {0: arg}
    _run_loop_stmts(stmts, regs)
    return regs.get(0, 0)


def _run_loop_stmts(stmts, regs) -> None:
    for st in stmts:
        if isinstance(st, Inc):
            regs[st.reg] = regs.get(st.reg, 0) + 1
        elif isinstance(st, ZeroR):
            regs[st.reg] = 0
        elif isinstance(st, Copy):
            regs[st.dst] = regs.get(st.src, 0)
        else:
            for _ in range(regs.get(st.reg, 0)):
                _run_loop_stmts(st.body, regs)


class LoopCompiler:
    """Compiles loop programs to machine indices and records the image."""

    def __init__(self):
        self._image: set[ProgramIndex] = set()

    def compile(self, stmts: Sequence[LoopStmt]) -> ProgramIndex:
        base = max(_loop_regs(stmts), default=-1) + 1
        a = _Asm()
        self._emit(a, stmts, base, 0)
        index = index_of(a.assemble())
        self._image.add(index)
        return index

    def _emit(self, a: _Asm, stmts, base: int, depth: int) -> None:
        for st in stmts:
            if isinstance(st, Inc):
                a.emit("S", st.reg)
            elif isinstance(st, ZeroR):
                a.emit("Z", st.reg)
            elif isinstance(st, Copy):
                a.emit("T", st.src, st.dst)
            else:
                snap = base + 2 * depth
                cnt = base + 2 * depth + 1
                # named by position, which no other loop of the assembly shares
                top, end = f"lt{len(a._items)}", f"le{len(a._items)}"
                a.emit("T", st.reg, snap)
                a.emit("Z", cnt)
                a.label(top)
                a.emit("J", cnt, snap, end)
                self._emit(a, st.body, base, depth + 1)
                a.emit("S", cnt)
                a.emit("J", 0, 0, top)
                a.label(end)

    def indices(self) -> list[ProgramIndex]:
        return sorted(self._image)


default_loop_compiler = LoopCompiler()


def compile_loop(stmts: Sequence[LoopStmt]) -> ProgramIndex:
    """Compile with the shared default compiler (records the image)."""
    return default_loop_compiler.compile(stmts)


# ---------------------------------------------------------------------------
# Table programs: finite prefix dispatch with a constant or cyclic tail.
# These realize eventually periodic sequences as machine code.


def value_table_program(prefix: Sequence[Nat], const: Nat | None = None,
                        word: Sequence[Nat] | None = None) -> Program:
    if (const is None) == (word is None):
        raise ValueError("exactly one of const and word")
    if word is not None and not word:
        raise ValueError("word must be nonempty")
    if word is not None and len(word) == 1:
        const, word = word[0], None
    # a block of value v: Z, v S's and (but the last) a jump out; a prefix
    # value: J, S; a word of length w: w loads, 7 walking, 2w - 3 dispatching
    values = list(prefix) + ([const] if word is None else list(word))
    _check_emit_length(sum(values) + 2 * len(values) - 1 + 2 * len(prefix)
                       + (0 if word is None else 3 * len(word) + 4),
                       f"table over {len(prefix)} prefix values")
    a = _Asm()

    def block(values: Nat, last: bool) -> None:
        a.emit("Z", 0)
        for _ in range(values):
            a.emit("S", 0)
        if not last:
            a.emit("J", 0, 0, "end")

    if word is not None:
        for _ in range(len(word)):
            a.emit("S", 3)
    for j in range(len(prefix)):
        a.emit("J", 0, 1, f"set{j}")
        a.emit("S", 1)
    if const is not None:
        block(const, last=not prefix)
    else:
        # position counter R1 == len(prefix); walk to n cycling R2 mod |word|
        a.label("cyc")
        a.emit("J", 1, 0, "disp")
        a.emit("S", 1)
        a.emit("S", 2)
        a.emit("J", 2, 3, "wrap")
        a.emit("J", 0, 0, "cyc")
        a.label("wrap")
        a.emit("Z", 2)
        a.emit("J", 0, 0, "cyc")
        a.label("disp")
        # R5 counts 0..w-2 as comparand; fallthrough lands in the last wset
        for t in range(len(word) - 1):
            if t:
                a.emit("S", 5)
            a.emit("J", 2, 5, f"wset{t}")
        a.label(f"wset{len(word) - 1}")
        block(word[-1], last=False)
        for t, v in enumerate(word[:-1]):
            a.label(f"wset{t}")
            block(v, last=not prefix and t == len(word) - 2)
    for j, v in enumerate(prefix):
        a.label(f"set{j}")
        block(v, last=j == len(prefix) - 1)
    a.label("end")
    return a.assemble()


def value_table_budget(prefix: Sequence[Nat], const: Nat | None,
                       word: Sequence[Nat] | None, arg: Nat) -> Nat:
    values = list(prefix) + ([const] if const is not None else list(word))
    top = max(values) if values else 0
    wlen = len(word) if word is not None else 0
    return 3 * wlen + 2 * len(prefix) + 8 * (arg + 1) + top + 12


# ---------------------------------------------------------------------------
# Stride tupling: t(s*k + j) = body_j applied to k.  The cheap alternative
# to pair tupling; component extraction composes with precompose_affine
# and stays representable, while a program that walks pair codes needs
# about 15 instructions, and those plus the s_const macro overrun the
# emission ceiling.


def stride_tuple_program(bodies: Sequence[Program]) -> Program:
    """Interleaves len(bodies) sequences at stride len(bodies).

    Each body computes one component from the cell number in R2 into R0
    and must be straight-line (no jumps) and keep off R1 and R2: the
    dispatch header walks R1 through 0, 1, 2, ... against the input to
    split it as s*k + j, counting k in R2.
    """
    s = len(bodies)
    if s < 1:
        raise ValueError("need at least one component body")
    for b in bodies:
        for tag, args in map(_fields, b.codes):
            if tag == 3:
                raise ValueError("component bodies must be straight-line")
            # every op but J writes its last argument
            if args[-1] in (1, 2):
                raise ValueError("component bodies must not write R1 or R2")
    length = (1 if s == 1 else 2 * s + 2) + sum(len(b) for b in bodies) + (s - 1)
    _check_emit_length(length, f"stride tuple over {s} components")
    a = _Asm()
    if s == 1:
        a.emit("T", 0, 2)
        a.copy(bodies[0])
        return a.assemble()
    a.label("cell")
    for j in range(s):
        a.emit("J", 0, 1, f"b{j}")
        a.emit("S", 1)
    a.emit("S", 2)
    a.emit("J", 0, 0, "cell")
    for j, b in enumerate(bodies):
        a.label(f"b{j}")
        a.copy(b)
        if j < s - 1:
            a.emit("J", 0, 0, "end")
    a.label("end")
    return a.assemble()


def stride_tuple_budget(stride: Nat, arg: Nat, body_bound: Nat) -> Nat:
    """Step bound for stride_tuple_program at input `arg`."""
    if stride == 1:
        return body_bound + 2
    return (arg // stride + 2) * (2 * stride + 2) + body_bound + 2
