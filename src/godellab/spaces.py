"""Finitely presented sequences.

A sequence is given either literally (a finite prefix followed by a
constant or periodic tail) or as a machine index run under a fixed step
budget.  Literal descriptors are the exactly-analyzable fragment: every
question asked about them downstream (is it the zero sequence, which
values occur, what is the limit) has a closed-form answer computed here.
Generated descriptors answer pointwise through the evaluator, with budget
exhaustion surfacing as None rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Union

from .numbering import (
    Nat,
    ProgramIndex,
    evaluate,
    index_of,
    value_table_budget,
    value_table_program,
)

# ---------------------------------------------------------------------------
# descriptors


@dataclass(frozen=True)
class Constant:
    value: Nat

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("tail constant must be a natural")


@dataclass(frozen=True)
class Periodic:
    word: tuple[Nat, ...]

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        if not self.word:
            raise ValueError("periodic word must be nonempty")
        if any(v < 0 for v in self.word):
            raise ValueError("periodic word must hold naturals")


Tail = Union[Constant, Periodic]


@dataclass(frozen=True)
class Literal:
    prefix: tuple[Nat, ...]
    tail: Tail

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        if any(v < 0 for v in self.prefix):
            raise ValueError("prefix must hold naturals")
        if not isinstance(self.tail, (Constant, Periodic)):
            raise ValueError("tail must be Constant or Periodic")


@dataclass(frozen=True)
class Generated:
    index: ProgramIndex
    budget: Nat

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("index must be a natural")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")


SeqDescriptor = Union[Literal, Generated]


def tail_word(tail: Tail) -> tuple[Nat, ...]:
    """The word a tail repeats: a constant is a word of one letter."""
    return (tail.value,) if isinstance(tail, Constant) else tail.word


def literal_value(d: Literal, n: Nat) -> Nat:
    """d(n), exactly."""
    if n < 0:
        raise ValueError("position must be a natural")
    if n < len(d.prefix):
        return d.prefix[n]
    w = tail_word(d.tail)
    return w[(n - len(d.prefix)) % len(w)]


def descriptor_get(d: SeqDescriptor, n: Nat) -> Optional[Nat]:
    """d(n), or None when a Generated descriptor's budget runs out."""
    if isinstance(d, Literal):
        return literal_value(d, n)
    out = evaluate(d.index, n, d.budget)
    return None if out is None else out.value


# ---------------------------------------------------------------------------
# exact analyses of Literal descriptors
#
# These closed forms are the ground truth the problem verifiers lean on;
# each one is a direct reading of "prefix then repeated word".


def literal_values(d: Literal) -> frozenset[Nat]:
    """All values the sequence ever takes."""
    return frozenset(d.prefix) | frozenset(tail_word(d.tail))


def cluster_values(d: Literal) -> frozenset[Nat]:
    """Values taken infinitely often: exactly the tail word's letters."""
    return frozenset(tail_word(d.tail))


def literal_is_zero(d: Literal) -> bool:
    return literal_values(d) == frozenset({0})


def is_convergent(d: Literal) -> bool:
    """True iff d(n) is eventually constant."""
    return len(set(tail_word(d.tail))) == 1


def literal_limit(d: Literal) -> Nat:
    if not is_convergent(d):
        raise ValueError("sequence does not converge")
    return tail_word(d.tail)[0]


def literal_min(d: Literal) -> Nat:
    return min(literal_values(d))


def literal_sup(d: Literal) -> Nat:
    return max(literal_values(d))


def literal_liminf(d: Literal) -> Nat:
    return min(cluster_values(d))


def least_absent(present) -> Nat:
    """Least natural not in present."""
    n = 0
    while n in present:
        n += 1
    return n


def literal_least_absent(d: Literal) -> Nat:
    """Least value the sequence never takes."""
    return least_absent(literal_values(d))


def subsample_literal(d: Literal, stride: Nat, offset: Nat) -> Literal:
    """The sequence n -> d(stride*n + offset), again a Literal.

    Sampling the tail with a fixed stride is periodic with period
    |word| / gcd(stride, |word|).  Component extraction of a pairing is
    the stride-2 case.
    """
    if stride < 1 or offset < 0:
        raise ValueError("need stride >= 1 and a natural offset")
    w = tail_word(d.tail)
    k = max(0, -(-(len(d.prefix) - offset) // stride))
    prefix = tuple(literal_value(d, stride * n + offset) for n in range(k))
    span = len(w) // gcd(stride, len(w))
    word = tuple(literal_value(d, stride * (k + j) + offset) for j in range(span))
    return Literal(prefix, Periodic(word))


def component_literal(d: Literal, i: int) -> Literal:
    """Component i of a stride-2 interleaved pair."""
    if i not in (0, 1):
        raise ValueError("pair component must be 0 or 1")
    return subsample_literal(d, 2, i)


# ---------------------------------------------------------------------------
# compiling literals to machine indices


def compile_literal(d: SeqDescriptor) -> ProgramIndex:
    """An index computing exactly the Literal's sequence, total.

    Generated descriptors are rejected: they already carry an index.
    Rejects literals whose table program would be too wide to own a
    usable index (the index digit count doubles per instruction).
    """
    if isinstance(d, Generated):
        raise ValueError("descriptor already carries an index")
    if not isinstance(d, Literal):
        raise ValueError("need a sequence descriptor")
    if isinstance(d.tail, Constant):
        prog = value_table_program(d.prefix, const=d.tail.value)
    else:
        prog = value_table_program(d.prefix, word=d.tail.word)
    return index_of(prog)


def literal_eval_budget(d: Literal, n: Nat) -> Nat:
    """Budget under which the compiled index settles position n."""
    if isinstance(d.tail, Constant):
        return value_table_budget(d.prefix, d.tail.value, None, n)
    return value_table_budget(d.prefix, None, d.tail.word, n)


# ---------------------------------------------------------------------------
# text form


def format_descriptor(d: SeqDescriptor) -> str:
    if isinstance(d, Generated):
        return f"gen index={d.index} budget={d.budget}"
    fields = ["lit"]
    if d.prefix:
        fields.append("prefix=" + ",".join(str(v) for v in d.prefix))
    if isinstance(d.tail, Constant):
        fields.append(f"tail=const:{d.tail.value}")
    else:
        fields.append("tail=per:" + ",".join(str(v) for v in d.tail.word))
    return " ".join(fields)


def _nat(text: str) -> Nat:
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected ASCII decimal digits, got {text!r}")
    return int(text)


def parse_descriptor(text: str) -> SeqDescriptor:
    """Inverse of format_descriptor; grammar used by corpus files."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty descriptor")
    kind, fields = tokens[0], {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        key, _, val = tok.partition("=")
        if key in fields:
            raise ValueError(f"duplicate field {key!r}")
        fields[key] = val
    if kind == "gen":
        if set(fields) != {"index", "budget"}:
            raise ValueError("gen descriptor needs exactly index= and budget=")
        return Generated(_nat(fields["index"]), _nat(fields["budget"]))
    if kind != "lit":
        raise ValueError(f"unknown descriptor kind {kind!r}")
    prefix = ()
    if "prefix" in fields:
        prefix = tuple(_nat(v) for v in fields.pop("prefix").split(","))
    tail_text = fields.pop("tail", None)
    if tail_text is None:
        raise ValueError("lit descriptor needs tail=")
    if fields:
        raise ValueError(f"unknown fields {sorted(fields)}")
    shape, _, body = tail_text.partition(":")
    if shape == "const":
        tail: Tail = Constant(_nat(body))
    elif shape == "per":
        tail = Periodic(tuple(_nat(v) for v in body.split(",")))
    else:
        raise ValueError(f"unknown tail shape {shape!r}")
    return Literal(prefix, tail)
