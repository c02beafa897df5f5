"""Reference interpreter and universe table, written apart from godellab.

Nothing here imports godellab.  The machine is re-implemented from its
definition: its own Cantor unpairing and list decoding, a plain step loop
over a register dictionary, and EVB with the same re-entrance and
depth-64 cuts as the lab's evaluator, but with no memo, no lowering and
no cycle proofs.  The benchmark checks the lab's outputs against it.

An outcome is ``(value, steps)`` when the program halts within the
budget and ``None`` when the budget runs out.
"""

from __future__ import annotations

from math import isqrt

DEPTH_LIMIT = 64
OPS = ("Z", "S", "T", "J", "EVB")


def unpair(n: int) -> tuple[int, int]:
    """Inverse of the Cantor pairing (x + y)(x + y + 1)/2 + y."""
    if n < 0:
        raise ValueError("unpair needs a natural")
    # d is the diagonal: the largest d with d(d+1)/2 <= n
    d = isqrt(2 * n)
    while d * (d + 1) // 2 > n:
        d -= 1
    y = n - d * (d + 1) // 2
    return d - y, y


def decode_instruction(code: int) -> tuple:
    """An instruction as ``(op, arg, ...)``; the code is 5 * payload + tag."""
    payload, tag = divmod(code, 5)
    op = OPS[tag]
    if op in ("Z", "S"):
        return (op, payload)
    args = []
    # T has two arguments, J three, EVB four, nested right-first
    for _ in range({"T": 1, "J": 2, "EVB": 3}[op]):
        head, payload = unpair(payload)
        args.append(head)
    args.append(payload)
    return (op, *args)


def decode_program(index: int) -> list[tuple]:
    """Index 0 is the empty program; cons(x, rest) codes as pair(x, rest) + 1."""
    program = []
    while index > 0:
        head, index = unpair(index - 1)
        program.append(decode_instruction(head))
    return program


def run(index: int, arg: int, budget: int, chain: frozenset = frozenset()):
    """Run program `index` on `arg` for at most `budget` steps.

    `chain` holds the (index, input) pairs of the EVB calls this one is
    nested in.  An EVB call that would re-enter one of them, or nest
    deeper than DEPTH_LIMIT, writes 0 without running.
    """
    program = decode_program(index)
    chain = chain | {(index, arg)}
    regs = {0: arg}
    pc = steps = 0
    while True:
        if pc >= len(program):
            return regs.get(0, 0), steps
        if steps >= budget:
            return None
        ins = program[pc]
        op = ins[0]
        pc += 1
        if op == "Z":
            regs[ins[1]] = 0
        elif op == "S":
            regs[ins[1]] = regs.get(ins[1], 0) + 1
        elif op == "T":
            regs[ins[2]] = regs.get(ins[1], 0)
        elif op == "J":
            if regs.get(ins[1], 0) == regs.get(ins[2], 0):
                pc = ins[3]
        else:
            sub = (regs.get(ins[1], 0), regs.get(ins[2], 0))
            if sub in chain or len(chain) >= DEPTH_LIMIT:
                regs[ins[4]] = 0
            else:
                out = run(sub[0], sub[1], regs.get(ins[3], 0), chain)
                regs[ins[4]] = 0 if out is None else out[0] + 1
        steps += 1


def values(index: int, window: int, budget: int) -> tuple:
    """Halted values at positions 0..window (inclusive); None where the
    budget runs out."""
    row = []
    for n in range(window + 1):
        out = run(index, n, budget)
        row.append(None if out is None else out[0])
    return tuple(row)


class UniverseTable:
    """Rows of values for every index 0..index_bound at positions
    0..window under one cap, so least indices and verified sets are read
    straight from the table."""

    def __init__(self, index_bound: int, window: int, cap: int):
        self.window = window
        self.cap = cap
        self.rows = [values(i, window, cap) for i in range(index_bound + 1)]

    def verified(self, targets) -> list[int]:
        """Every index whose row halts with exactly `targets`."""
        targets = tuple(targets)
        return [i for i, row in enumerate(self.rows) if row == targets]

    def least(self, targets):
        found = self.verified(targets)
        return found[0] if found else None

    def verifies(self, index: int, targets) -> bool:
        """Window verification of any index, inside the table or not."""
        if index < len(self.rows):
            return self.rows[index] == tuple(targets)
        return values(index, self.window, self.cap) == tuple(targets)
