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
from typing import Iterable, Sequence

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
    text form.  `operator.index` gives the index through `index_of`, and
    `evaluate` runs a program as its index without encoding it."""

    codes: tuple[Nat, ...] = ()

    def __post_init__(self):
        if self.codes and min(self.codes) < 0:
            raise ValueError("instruction codes must be naturals")

    def __len__(self) -> int:
        return len(self.codes)

    def __index__(self) -> ProgramIndex:
        return index_of(self)


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
    """A run that halted within its budget; one that did not is None."""

    value: Nat
    steps: Nat


# ---------------------------------------------------------------------------
# Budgeted evaluator.
#
# `evaluate` is the one entry: lowering turns a list of instruction codes
# into tuples over densely renumbered registers, in one read of each code,
# and `_run` is the only machine step loop.
#
# Every instruction costs one step, EVB included: the inner evaluation is
# free for the caller and runs under the budget read from R[s].
#
# Each program has one record (`_Record`): its lowering, whether its code
# holds an EVB, the path of a free program (below), and an entry per
# completed run: the `Halted` that `_run` built, which a hit within its
# steps returns itself (outcomes are immutable); `_NEVER` (infinity) for a
# run proven never to halt; or the int count of steps explored without a
# halt.  `_run` and `_follow` return the entry, and `_eval` answers the
# Halted or None.
#
# Re-entrant self-interpretation (an EVB chain reaching a (program, input)
# pair that is already being evaluated) has no consistent solution, so such
# inner calls are treated as divergent, as are chains nested deeper than
# _DEPTH_LIMIT.  Both cuts are independent of the outer budget, which keeps
# budget monotonicity intact.
#
# An entry is keyed by what its run reads besides program and budget: its
# input and, at an EVB, the chain of (record, input) pairs of the EVB runs
# above, which both cuts read.  So an EVB program's entry is keyed by
# (input, chain) below the top of the chain, any other by input: every
# completed run is stored, exact for every caller, and a nested call
# repeated under one chain is a hit.  A miss hashes the index once.  Only
# EVB records join a chain, so the chain grows only when an EVB step
# reaches an EVB program: a run builds the chain below it, the chain above
# plus its own (record, input), on the first such step and shares it with
# every later one, and a step that reaches a program without an EVB skips
# the re-entrance test, since that program is on no chain.
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
# A program the lab builds runs as it is.  `evaluate` takes a Program as
# well as an index and runs it under the record keyed by its codes tuple,
# lowered from the codes, so the evaluator never decodes an index the lab
# emitted; `evaluate_window` runs a Program on inputs 0..w from one fetch
# of that record.  An index is decoded to its codes on first use (corpus files,
# universe scans, command-line arguments, EVB index registers) and keys
# the record those codes have, which a program the lab built may have made
# already.  `index_of` (and `operator.index`, through `Program.__index__`)
# encodes the program on the first read and adds the index as a key of its
# record.  So every program has one record however it is reached: by its
# codes, by its index, in either order.  A program emitted twice is
# encoded once, and a record made by decoding has its index from the
# start.  The key is the codes tuple, not the Program, because a tuple
# hashes in C.
#
# The chain holds records, so the re-entrance cut is exact for any program:
# an EVB step fetches the record of the index in its register and cuts when
# (record, input) is on the chain, whether the program above runs from its
# codes or from its index.  Only the unpairing of an index register is
# paid, never an encode of a program on the chain; `encode` itself stays
# a pure codec and fills no cache.  `s_const`, `LoopCompiler.compile` and
# the corpus' and literal compiler's encodings return the index, which
# their callers read; `precompose_affine` and the promise learners'
# dovetailer return the program, whose index (up to 734,059 bits) only a
# reduction witness or the offset_h mutant reads.

_DEPTH_LIMIT = 64
_NEVER = inf


class _Record:
    """The one record of a program: its index (None until the index is
    decoded or `index_of` reads it), `_lower`'s four fields, whether the
    code holds an EVB, entries by key, and the path: None unless the
    program is free (no EVB, and its input reaches no comparison), else the
    run every input shares (a `Halted`, a (c, steps) pair, _NEVER or the
    steps explored), with -1 for no run yet, since an EVB may run a program
    under budget 0."""

    __slots__ = ("index", "code", "nregs", "top", "ctrl", "evb", "path", "outcomes")

    def __init__(self, lowered: tuple):
        self.index = None
        self.code, self.nregs, self.top, self.ctrl = lowered
        self.evb = any(ins[0] == 4 for ins in self.code)
        self.path = None if self.evb or self.ctrl is None or 0 in self.ctrl else -1
        self.outcomes: dict[int | tuple, Halted | int | float] = {}


# codes tuple -> the program's one record, lowered on first use, and index
# -> the same record once the index is decoded or `index_of` reads it.  The
# only cache of this module.  A record has one or two keys, and the cap
# counts keys: a store past _KEY_CAP keys is emptied whole by `_bound`,
# and only between the evaluator's runs: before `evaluate`, `index_of` or
# an emitter makes a record (never after, so the new record stays), after
# a run of `evaluate` that may have made records below it (any run but a
# free record's, a hit on the top record included), and once after
# `evaluate_window`.  Never while a run is open, since the chain holds
# records and a record emptied and lowered again mid-run would not be the
# one on the chain.  A hit runs no test.  Every entry is exact, so
# emptying changes no outcome, only what is computed again.
_KEY_CAP = 4096
_records: dict[int | tuple, _Record] = {}
# the chain of a run below no EVB run; `_eval`'s chain is None only for
# a call from outside the evaluator
_NO_CHAIN: frozenset = frozenset()


def _bound() -> None:
    """Empty the store if it holds more than _KEY_CAP keys."""
    if len(_records) > _KEY_CAP:
        clear_eval_cache()


def clear_eval_cache() -> None:
    # an entry below the top of an EVB chain is keyed by the chain's
    # records, so a program that runs itself holds its own record; clearing
    # the entries first leaves no cycle for the collector
    for rec in _records.values():
        rec.outcomes.clear()
    _records.clear()


def _lower(codes: Sequence[Nat]) -> tuple:
    """(code, register count, largest register name, control slots) of the
    program with instruction codes `codes`, in one read of each code.

    Registers are renumbered densely in name order, so R0 stays slot 0 and
    the register file has one slot per named register, however large the
    names are; names that are already 0..k are kept.  Jump targets are kept
    as they are.

    The control slots are the slots whose values can reach a comparison:
    both operands of every conditional jump (J a b k with a != b), closed
    backwards through writes, so the source of a T into a control slot and
    the index, argument and budget registers of an EVB into one are control
    slots too.  They are a sorted tuple, or None when they are every slot.
    """
    code = []
    names = {0}
    control = set()
    writes = False  # whether a T or an EVB writes a register
    for m in codes:
        tag, args = _fields(m)
        code.append((tag,) + args)
        if tag == 3:
            a, b, _ = args
            names.add(a)
            names.add(b)
            if a != b:
                control.add(a)
                control.add(b)
        else:
            names.update(args)
            writes = writes or tag >= 2
    nregs, top = len(names), max(names)
    if top >= nregs:
        slot = {r: i for i, r in enumerate(sorted(names))}
        code = [(3, slot[ins[1]], slot[ins[2]], ins[3]) if ins[0] == 3
                else (ins[0],) + tuple(slot[r] for r in ins[1:]) for ins in code]
        control = {slot[r] for r in control}
    if writes and control:
        # reads[d]: the slots read by a T or EVB that writes slot d
        reads = [[] for _ in range(nregs)]
        for ins in code:
            if ins[0] == 2 or ins[0] == 4:
                reads[ins[-1]].extend(ins[1:-1])
        work = list(control)
        while work:
            for src in reads[work.pop()]:
                if src not in control:
                    control.add(src)
                    work.append(src)
    ctrl = None if len(control) == nregs else tuple(sorted(control))
    return tuple(code), nregs, top, ctrl


def _record(key: ProgramIndex | tuple) -> _Record:
    """The record of the codes tuple `key`, or of the index `key`, which is
    decoded on first use and keys the record its codes have."""
    rec = _records.get(key)
    if rec is None:
        if type(key) is tuple:
            rec = _records[key] = _Record(_lower(key))
        else:
            rec = _records[key] = _record(tuple(decode_list(key)))
            rec.index = key
    return rec


def _held(key: ProgramIndex | tuple) -> _Record:
    """`_record(key)` for a caller outside the evaluator, which may make
    the record: a full store is emptied before, never after, so the record
    just made stays and `index_of` keys its index to the record its codes
    reach."""
    _bound()
    return _record(key)


def index_of(program: Program) -> ProgramIndex:
    """encode(program), kept in the program's record, which the first read
    also keys by the index: an index the lab emits is never decoded, and a
    program emitted twice is encoded once."""
    rec = _held(program.codes)
    if rec.index is None:
        rec.index = encode(program)
        _records[rec.index] = rec
    return rec.index


def evaluate(index: ProgramIndex | Program, arg: Nat, budget: Nat) -> Halted | None:
    """Run decode(index) on `arg` for at most `budget` steps.

    Returns Halted(value, steps) with steps <= budget, or None when the
    run does not halt within the budget.  Deterministic and monotone in
    the budget: a Halted outcome is reproduced unchanged under any larger
    budget.  One hash of the index, or of a Program's codes, fetches the
    program's record; its entry for `arg` (the Halted, never-halts, or the
    steps explored) answers a hit, and a miss stores one.  A Program runs
    as its index does, without encoding it (see above).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    try:
        if arg < 0 or index < 0:
            raise ValueError("index and argument must be naturals")
    except TypeError:
        # a Program does not compare with 0 (arg was checked first); taking
        # it here, not by a type test up front, costs the int path nothing
        if type(index) is not Program:
            raise
        index = index.codes
    return _eval(_records.get(index) or _held(index), arg, budget)


def evaluate_window(program: Program, window: Nat, budget: Nat) -> list[Halted | None]:
    """[evaluate(program, n, budget) for n in 0..window], from one fetch
    of the program's record; a full store is emptied once, after the
    last."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rec = _records.get(program.codes) or _record(program.codes)
    outs = [_eval(rec, n, budget, _NO_CHAIN) for n in range(window + 1)]
    _bound()
    return outs


def _eval(rec: _Record, arg: int, budget: int, chain=None) -> Halted | None:
    """`chain` holds the (record, input) pairs of the EVB runs above; it is
    None for a call from `evaluate`, whose run may make records below it,
    even when its own record was a hit, and so empties a full store
    after.  A run below never empties it: the chain holds its records."""
    key = (arg, chain) if rec.evb and chain else arg
    ent = rec.outcomes.get(key)
    if ent is not None:
        if type(ent) is Halted:
            return ent if budget >= ent.steps else None
        if budget <= ent:
            return None
    if rec.path is not None:
        # a free record holds no EVB, so this makes no record
        ent = rec.outcomes[key] = _follow(rec, arg, budget)
    elif chain is None:
        ent = rec.outcomes[key] = _run(rec, arg, budget, _NO_CHAIN)
        _bound()
    else:
        ent = rec.outcomes[key] = _run(rec, arg, budget, chain)
    return ent if type(ent) is Halted else None


def _follow(rec: _Record, arg: int, budget: int):
    """A free record's run on `arg`, read from its path: its memo entry."""
    path = rec.path
    if type(path) is int and budget > path:
        probe = budget + 1
        path = _run(rec, probe, budget, _NO_CHAIN)
        if type(path) is Halted and path.value >= probe:
            path = (path.value - probe, path.steps)
        rec.path = path
    if type(path) is tuple:
        path = Halted(arg + path[0], path[1])
    elif type(path) is not Halted:
        return path if path == _NEVER else budget
    return path if budget >= path.steps else budget


def _run(rec: _Record, arg: int, budget: int, chain: frozenset):
    """The machine step loop of `rec` on `arg` below the EVB runs `chain`:
    its memo entry, a Halted or the steps explored.

    The pc and the control slots (every slot when `rec.ctrl` is None) are
    snapshotted at doubling step counts.  When both repeat, the run
    provably never halts, whatever the other registers hold: the entry
    is _NEVER.

    The depth cut is decided once, since the chain does not change during
    the run; the chain below it, `chain` plus (rec, arg), is built on the
    first EVB step that reaches an EVB program (see above).
    """
    code, ctrl = rec.code, rec.ctrl
    regs = [0] * rec.nregs
    regs[0] = arg
    pc = 0
    steps = 0
    ncode = len(code)
    snap_pc = -1
    snap = None
    next_snap = 8
    deep = len(chain) + 1 >= _DEPTH_LIMIT
    below = None
    while True:
        if pc >= ncode:
            return Halted(regs[0], steps)
        if steps >= budget:
            return budget
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
            out = None
            if not deep:
                sub = _records.get(regs[ins[1]]) or _record(regs[ins[1]])
                if not sub.evb:
                    out = _eval(sub, regs[ins[2]], regs[ins[3]], _NO_CHAIN)
                else:
                    if below is None:
                        below = chain | {(rec, arg)}
                    if (sub, regs[ins[2]]) not in below:
                        out = _eval(sub, regs[ins[2]], regs[ins[3]], below)
            regs[ins[4]] = 0 if out is None else out.value + 1
            pc += 1
        steps += 1
        if pc == snap_pc and (regs if ctrl is None else [regs[c] for c in ctrl]) == snap:
            return _NEVER
        if steps == next_snap:
            snap_pc = pc
            snap = regs.copy() if ctrl is None else [regs[c] for c in ctrl]
            next_snap <<= 1


# ---------------------------------------------------------------------------
# A small assembler for emitted programs.  Jump targets may be label strings;
# a label placed after the last instruction resolves past the end (halt).
#
# The list code squares roughly once per instruction, so an index has about
# 2^L digits for an L-instruction program.  The programs the lab emits have
# a hard desk-scale length ceiling; beyond it the index is mathematically
# fine but cannot be materialized.

EMIT_LENGTH_CEILING = 22


def _check_emit_length(n: int, what: str) -> None:
    if n > EMIT_LENGTH_CEILING:
        raise ValueError(
            f"{what} needs {n} instructions; indices beyond "
            f"{EMIT_LENGTH_CEILING} instructions are not representable at desk scale"
        )


class _Asm:
    """Counts every instruction it is asked to emit but keeps only those
    within the emission ceiling, so an emitter states its length once, as
    what it emits; `assemble` refuses an over-long program, naming `what`,
    without having built the instructions past the ceiling."""

    def __init__(self, what: str):
        self._what = what
        self._count = 0
        # copied codes, and (op tag, args) to code once every label is placed
        self._items: list = []
        self._labels: dict[str, int] = {}

    def label(self, name: str) -> None:
        if name in self._labels:
            raise ValueError(f"duplicate label {name}")
        self._labels[name] = self._count

    def emit(self, op: str, *args, times: int = 1) -> None:
        """Emit `times` copies of the instruction `op args`."""
        if self._count + times <= EMIT_LENGTH_CEILING:
            self._items += [(_OPS.index(op), args)] * times
        self._count += times

    def copy(self, program: Program) -> None:
        """Emit `program`, its jump targets moved past what precedes it."""
        if self._count + len(program) <= EMIT_LENGTH_CEILING:
            for m in program.codes:
                if m % 5 == 3:
                    a, b, k = _fields(m)[1]
                    m = _code(3, (a, b, k + self._count))
                self._items.append(m)
        self._count += len(program)

    def assemble(self) -> Program:
        _check_emit_length(self._count, self._what)
        out = []
        for m in self._items:
            if type(m) is tuple:
                tag, args = m
                if tag == 3 and type(args[2]) is str:
                    if args[2] not in self._labels:
                        raise ValueError(f"unknown label {args[2]}")
                    args = args[:2] + (self._labels[args[2]],)
                m = _code(tag, args)
            out.append(m)
        return Program(tuple(out))


# ---------------------------------------------------------------------------
# Index transformers: a macro, then the original program copied after it.
# Macros use scratch registers above the suffix's register space, so no
# zeroing pass is needed before the original program runs.


def s_const(index: ProgramIndex, const: Nat) -> ProgramIndex:
    """Index of a program computing n -> decode(index)(pair(const, n)).

    Prepends a macro that replaces R0 by pair(const, R0) using the identity
    pair(c, n) = T_c + sum_{k<n} (c + 2 + k), with T_c triangular.
    """
    if const < 0:
        raise ValueError("const must be a natural")
    suffix = decode(index)
    base = _held(suffix.codes).top + 1
    k, b, acc, i = base, base + 1, base + 2, base + 3
    a = _Asm(f"s_const(..., {const})")
    a.emit("S", b, times=const + 2)
    a.emit("S", acc, times=const * (const + 1) // 2)
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
    a.copy(suffix)
    return index_of(a.assemble())


def s_const_budget(const: Nat, arg: Nat, inner: Nat) -> Nat:
    """Budget sufficient for evaluate(s_const(i, const), arg, .) given the
    original program halts within `inner` steps on pair(const, arg)."""
    return (2 * arg * arg + 4 * arg * const + 12 * arg
            + const * const + const + 8 + inner)


def precompose_affine(index: ProgramIndex, mul: Nat, add: Nat) -> Program:
    """The program computing n -> decode(index)(mul * n + add), whose index
    (over 200,000 bits for a 15-instruction suffix) is encoded only when
    read."""
    if mul < 0 or add < 0:
        raise ValueError("mul and add must be naturals")
    suffix = decode(index)
    a = _Asm(f"precompose_affine(..., {mul}, {add})")
    if mul == 1:
        a.emit("S", 0, times=add)
    else:
        base = _held(suffix.codes).top + 1
        k, acc = base, base + 1
        a.label("lp")
        a.emit("J", k, 0, "done")
        a.emit("S", acc, times=mul)
        a.emit("S", k)
        a.emit("J", 0, 0, "lp")
        a.label("done")
        a.emit("S", acc, times=add)
        a.emit("T", acc, 0)
    a.copy(suffix)
    return a.assemble()


def affine_budget(mul: Nat, add: Nat, arg: Nat, inner: Nat) -> Nat:
    if mul == 1:
        return add + inner
    return arg * (mul + 3) + add + 8 + inner


# ---------------------------------------------------------------------------
# First-value dovetailing over a fixed member set: the emitted program runs
# every member on the input under round-robin budgets 1, 2, 3, ... and halts
# with the first value any member produces.  Member constants are loaded as
# gaps in one register per round, so members must be strictly increasing.


def first_value_program(members: Sequence[ProgramIndex]) -> Program:
    if not members:
        raise ValueError("need at least one member")
    if any(b <= a for a, b in zip(members, members[1:])) or members[0] < 0:
        raise ValueError("members must be strictly increasing naturals")
    a = _Asm(f"first-value program over {len(members)} members")
    # R0 input, R1 inner budget, R2 evb result, R3 pinned zero,
    # R4/R5 decrement scratch, R6 member cursor
    if len(members) == 1:
        a.emit("S", 6, times=members[0])
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
        a.emit("S", 6, times=j - prev)
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


LoopStmt = Inc | ZeroR | Copy | Loop


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
        a = _Asm("loop program")
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
                top, end = f"lt{a._count}", f"le{a._count}"
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
    # value: J, S; a word of length w: w loads, 7 walking, 2w - 3 dispatching.
    # Counted up front, since the dispatch emits per letter of the word
    values = list(prefix) + ([const] if word is None else list(word))
    what = f"table over {len(prefix)} prefix values"
    _check_emit_length(sum(values) + 2 * len(values) - 1 + 2 * len(prefix)
                       + (0 if word is None else 3 * len(word) + 4), what)
    a = _Asm(what)

    def block(values: Nat, last: bool) -> None:
        a.emit("Z", 0)
        a.emit("S", 0, times=values)
        if not last:
            a.emit("J", 0, 0, "end")

    if word is not None:
        a.emit("S", 3, times=len(word))
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
    a = _Asm(f"stride tuple over {s} components")
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
