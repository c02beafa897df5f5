"""Corpus files: one instance per line, deterministic generators.

A line is a descriptor in the grammar of format_descriptor, optionally
extended by annotation fields the descriptor parser does not know:

    lit prefix=0,1 tail=const:2
    gen index=55 budget=400
    lit tail=const:0 m=3
    gen index=8837 budget=60 width=2 which=1

Annotations carry per-instance promises and tuple bookkeeping: m is the
amalgamation universe bound, k the shrinking-set bound, width and which
select a component of a stride-tupled descriptor.  Blank lines and
lines starting with # are skipped; parse errors name the line.

`write_text` is the lab's one file writer, for corpora and result files
alike: a reader sees the old file or the whole new one, never a part,
and a file that already holds the bytes is left untouched.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .numbering import (
    Nat,
    Program,
    index_of,
    parse_program,
    stride_tuple_budget,
    stride_tuple_program,
)
from .spaces import (
    Constant,
    Generated,
    Literal,
    Periodic,
    SeqDescriptor,
    format_descriptor,
    parse_descriptor,
)

ANNOTATION_KEYS = ("m", "k", "width", "which")


@dataclass(frozen=True)
class CorpusEntry:
    descriptor: SeqDescriptor
    m: Optional[Nat] = None
    k: Optional[Nat] = None
    width: Optional[Nat] = None
    which: Optional[Nat] = None


def format_entry(e: CorpusEntry) -> str:
    text = format_descriptor(e.descriptor)
    for key in ANNOTATION_KEYS:
        v = getattr(e, key)
        if v is not None:
            text += f" {key}={v}"
    return text


def parse_corpus_line(text: str) -> CorpusEntry:
    nodes = {}
    rest = []
    for tok in text.split():
        key, sep, val = tok.partition("=")
        if sep and key in ANNOTATION_KEYS:
            if key in nodes:
                raise ValueError(f"duplicate annotation {key!r}")
            if not (val.isascii() and val.isdigit()):
                raise ValueError(f"annotation {key}= needs a natural number")
            nodes[key] = int(val)
        else:
            rest.append(tok)
    return CorpusEntry(parse_descriptor(" ".join(rest)), **nodes)


def read_corpus(lines: Iterable[str]) -> list[CorpusEntry]:
    entries = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            entries.append(parse_corpus_line(line))
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
    return entries


def write_text(path, text: str) -> None:
    """Put `text` at `path` as UTF-8 through `path`.tmp and `os.replace`,
    unless `path` already holds exactly those bytes; then nothing is
    written and its mtime does not move."""
    data = text.encode()
    try:
        with open(path, "rb") as fh:
            # one byte more, so that a longer file does not compare equal
            if fh.read(len(data) + 1) == data:
                return
    except OSError:
        pass   # absent or unreadable: the write below replaces it or fails
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    try:
        os.replace(tmp, path)
    except OSError:
        os.remove(tmp)
        raise


def write_corpus(path, entries: Sequence[CorpusEntry]) -> None:
    write_text(path, "".join(format_entry(e) + "\n" for e in entries))


# ---------------------------------------------------------------------------
# generators
#
# Each generator is deterministic under its seed and emits only
# instances inside the target problem's domain.  Sizes are reached by
# drawing variants until `size` distinct entries accumulate; each draw
# space is finite, so a size past its count of distinct entries is
# refused up front instead of drawing forever.  A size of None asks for
# DEFAULT_SIZE entries, or every distinct entry of a smaller space.

DEFAULT_SIZE = 50


def _draw_count(size: int | None, most: int) -> int:
    """How many entries to draw from a space of `most` distinct ones."""
    if size is None:
        return min(DEFAULT_SIZE, most)
    if size < 0:
        raise ValueError(f"size must be at least 0, got {size}")
    if size > most:
        raise ValueError(f"size must be at most {most}, got {size}: there "
                         f"are no more distinct entries to draw")
    return size


def distinct_entries(size: int | None, most: int,
                     draw: Callable[[int], object],
                     entry: Callable[[object], CorpusEntry] = CorpusEntry
                     ) -> list[CorpusEntry]:
    """The entries of the first `_draw_count(size, most)` distinct draws;
    `draw(n)` makes one draw once n entries are accepted, and no more
    than `most` entries can be drawn distinct."""
    size = _draw_count(size, most)
    seen = set()
    out: list[CorpusEntry] = []
    while len(out) < size:
        key = draw(len(out))
        if key not in seen:
            seen.add(key)
            out.append(entry(key))
    return out


# total functions with least index inside an affordable universe,
# written as (base index, constant value or None, straight-line cost)
_TOTAL_POOL = (
    (0, None, 2),   # identity
    (1, 0, 3),      # constant 0
    (2, None, 3),   # successor
    (6, 1, 4),      # constant 1
    (9, None, 4),   # add two
    (55, 2, 5),     # constant 2
    (65, None, 5),  # add three
)


def gen_total_programs(size: int | None, seed: int, window: Nat = 8) -> list[CorpusEntry]:
    """Descriptor variants of total functions the bounded universe can
    name: generated forms under varied budgets plus literal paddings of
    the constant members."""
    rng = random.Random(seed)

    def draw(_):
        base, const, cost = _TOTAL_POOL[rng.randrange(len(_TOTAL_POOL))]
        if const is not None and rng.random() < 0.4:
            pad = rng.randrange(0, 7)
            return Literal((const,) * pad, Constant(const))
        return Generated(base, cost + rng.randrange(0, 160))

    # 7 bases x 160 budgets, plus 3 constants x 7 paddings
    return distinct_entries(size, 7 * 160 + 3 * 7, draw)


def gen_literal_sequences(size: int | None, seed: int, window: Nat = 8) -> list[CorpusEntry]:
    rng = random.Random(seed)

    def draw(_):
        prefix = tuple(rng.randrange(0, 10) for _ in range(rng.randrange(0, 6)))
        if rng.random() < 0.5:
            tail = Constant(rng.randrange(0, 10))
        else:
            word = tuple(rng.randrange(0, 10)
                         for _ in range(rng.randrange(1, 4)))
            tail = Periodic(word)
        return Literal(prefix, tail)

    # prefixes of 0..5 digits, times 10 constant and 1110 periodic tails
    return distinct_entries(size, 111111 * 1120, draw)


def gen_bounded_monotone(size: int | None, seed: int, window: Nat = 8) -> list[CorpusEntry]:
    rng = random.Random(seed)

    def draw(_):
        v = rng.randrange(0, 3)
        prefix = []
        for _ in range(rng.randrange(0, 5)):
            prefix.append(v)
            v += rng.randrange(0, 2)
        return Literal(tuple(prefix), Constant(v))

    # 3 starts times 2^n steps for a prefix of n = 0..4 values
    return distinct_entries(size, 3 * (1 + 2 + 4 + 8 + 16), draw)


def gen_lpo_mixed(size: int | None, seed: int, window: Nat = 8) -> list[CorpusEntry]:
    """Zero and non-zero sequences in roughly equal measure; always
    contains at least one of each once size >= 2."""
    # every odd draw is one of 9 values x 10 placements x 11 tails, and
    # size // 2 of them are needed
    most = 2 * 9 * 10 * 11 + 1
    size = _draw_count(size, most)
    rng = random.Random(seed)

    def draw(count):
        if count % 2 == 0:
            # distinct zero names differ only in prefix length, so the
            # pad bound has to grow with size or the draw loop starves
            return Literal((0,) * rng.randrange(0, max(6, size // 2 + 2)),
                           Constant(0))
        hot = rng.randrange(1, 10)
        prefix = [0] * rng.randrange(0, 4)
        prefix.insert(rng.randrange(0, len(prefix) + 1), hot)
        tail = Constant(rng.randrange(0, 10)) if rng.random() < 0.7 \
            else Periodic((hot,))
        return Literal(tuple(prefix), tail)

    return distinct_entries(size, most, draw)


# component bodies read the cell index from R2 and write R0
_BODIES = (
    parse_program("Z 0"),
    parse_program("T 2 0"),
    parse_program("T 2 0\nS 0"),
    parse_program("T 2 0\nS 0\nS 0"),
)


def _tupled(bodies: Sequence[Program], window: Nat) -> Generated:
    width = len(bodies)
    budget = stride_tuple_budget(width, window, 6) + 2
    return Generated(index_of(stride_tuple_program(list(bodies))), budget)


def gen_families(size: int | None, seed: int, window: Nat = 8) -> list[CorpusEntry]:
    """Stride-tupled descriptors with component selectors, for the
    parallelized least-index problems."""
    rng = random.Random(seed)

    def draw(_):
        width = rng.choice((1, 2))
        bodies = tuple(rng.choice(_BODIES) for _ in range(width))
        return bodies, rng.randrange(width)

    def entry(key):
        bodies, which = key
        return CorpusEntry(_tupled(bodies, window), width=len(bodies),
                           which=which)

    # 4 bodies at width 1, and 16 pairs x 2 components at width 2
    return distinct_entries(size, 4 + 16 * 2, draw, entry)


CORPUS_KINDS: dict[str, Callable[[int | None, int, Nat], list[CorpusEntry]]] = {
    "total-programs": gen_total_programs,
    "literal-sequences": gen_literal_sequences,
    "bounded-monotone": gen_bounded_monotone,
    "lpo-mixed": gen_lpo_mixed,
    "families": gen_families,
}


def to_reduction_instance(e: CorpusEntry, reduction: str):
    """Shape an entry for a catalog reduction's outer problem."""
    if reduction == "ghat_g":
        if e.which is None:
            raise ValueError("ghat_g instances need which=")
        return (e.descriptor, e.which)
    if reduction == "gstar_g":
        if e.width is None or e.which is None:
            raise ValueError("gstar_g instances need width= and which=")
        return (e.width, e.descriptor, e.which)
    return e.descriptor
