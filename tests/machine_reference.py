"""Outcomes of godelbench/reference.py in the lab's outcome types.

The reference machine shares no code with godellab: its own unpairing,
decoding and step loop, EVB with the same cuts, and no memo, lowering or
divergence proof.  The tests check the lab's evaluator against it through
the helpers here.
"""

import sys
from pathlib import Path

from godellab.numbering import Halted

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "godelbench"))

import reference  # noqa: E402

# the index a program runs as in `reference_program_outcome`; no index is negative
_SENTINEL = -1


def reference_outcome(index, arg, budget):
    """The reference run of `index` on `arg`, as Halted or None."""
    out = reference.run(index, arg, budget)
    return None if out is None else Halted(*out)


def reference_program_outcome(monkeypatch, program, arg, budget):
    """The reference run of a Program, which the lab runs without its index.

    The programs the lab emits can be too wide to encode and decode cheaply:
    `first_value_program([3, 4])` has a 7.6 Mbit index.  So the program
    runs as a sentinel index, which `monkeypatch` has the reference decode
    from the program's codes, one code at a time with its own
    `decode_instruction`.  The sentinel stands for the index on the EVB
    chain, so the run equals the lab's unless a register of it reaches the
    program's real index, which the lab would cut as re-entrant.
    """
    decode_program = reference.decode_program

    def decode(index):
        if index == _SENTINEL:
            return [reference.decode_instruction(code) for code in program.codes]
        return decode_program(index)

    monkeypatch.setattr(reference, "decode_program", decode)
    return reference_outcome(_SENTINEL, arg, budget)
