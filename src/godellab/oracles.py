"""Capped stand-ins for the halting oracle and the least-index map.

Every oracle here replaces an undecidable query by a step-capped one and
documents which way the approximation errs:

  * compatible: False (both halt with different values somewhere) is
    definitive; True only means "no disagreement below the cap and
    window".
  * in_R: capping can only remove witnesses i, so a capped True may be a
    false positive of the true set R, never the other way around.
  * min_index: the scan is exact relative to the capped universe; the
    result can only drop when the cap grows.

The brute-force scan of the bounded universe is one table per
OracleConfig (`Universe`), shared by every scan here and in the problems
and learners.  Row i holds phi_i on 0..window under the cap, and an
inverted map sends each row to the indices computing it, so
`min_index` and `verified_indices` are lookups, and `window_verify`,
`compatible` and `in_R` read stored cells; `compatible` compares two
rows at once when both are whole, and `Universe.value` reads a known
cell before anything else.  The table is lazy: rows are started in
index order and each is read only as far as a query needs, so a
least-index query starts no row past the least index.
`verified_indices` completes the table and then keeps its answer as
one frozenset per row of values, so every later query for equal
values, at any bound of G_>=, gets that same object.
`universe()` checks the config of its last lookup by identity before
its dict, and `Universe.prefix` the descriptor of its last read before
its own, so a query loop that passes one config and one descriptor
object pays no dataclass hash or equality per lookup, and equal configs
and descriptors still share one entry.  `clear_oracle_cache()` drops
every table, with its descriptor slot and answer sets, and the config
slot.
Cells outside a table, at indices above index_bound (emitted programs)
or positions above the window (`in_R` at a large k), are evaluated
directly and never stored.

Every store is bounded, so a long run keeps flat memory.  A table's
`rows` and `inverted` hold at most one row per index of
0..index_bound, which the config sets.  `prefixes` keeps the last
_QUERY_CAP descriptors read and `answers` the last _QUERY_CAP rows of
values verified, and `_universes` the last _TABLE_CAP tables made; each
drops its oldest entry first.  Every stored value is exact, so a
dropped entry is only computed again, never answered otherwise.

All range bounds in this module are inclusive: window w means arguments
0..w, index_bound b means candidates 0..b.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Optional

from .numbering import Nat, ProgramIndex, evaluate
from .spaces import SeqDescriptor, descriptor_get

# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class OracleConfig:
    cap: Nat
    window: Nat
    index_bound: Nat

    def __post_init__(self):
        if self.cap < 1 or self.window < 1 or self.index_bound < 1:
            raise ValueError("cap, window, and index_bound must be positive")


# ---------------------------------------------------------------------------
# the universe table

Row = tuple[Optional[Nat], ...]

# the stores' caps: the tables kept, and the descriptors and the rows of
# values each table keeps
_TABLE_CAP = 8
_QUERY_CAP = 4096


def _kept(store: dict, cap: int, key, value):
    """Store value under key and return it; a store already holding cap
    entries drops its oldest first (a dict keeps insertion order)."""
    if len(store) >= cap:
        del store[next(iter(store))]
    store[key] = value
    return value


class Universe:
    """The capped universe 0..index_bound of one config.

    Row i is phi_i on positions 0..window under the cap, None where the
    cap runs out.  Rows are started in index order and their cells are
    computed in position order, each only as far as a query needs: a
    least-index query reads a candidate only until it misses, as a plain
    scan would, and starts no row past the least index.  A row whose
    cells are all known goes into `inverted`, which sends it to its
    indices in increasing order.  `prefixes` keeps the values of each
    queried descriptor, and `_last` the last one read with its values.
    `answers` keeps the verified set of each queried row of values, made
    once the table is whole.  Each keeps the last _QUERY_CAP queried.
    """

    def __init__(self, cfg: OracleConfig):
        self.cfg = cfg
        # per started index: the cells known so far (a list), or the
        # whole row (a tuple)
        self.rows: list = []
        self.done = 0    # rows 0..done-1 are whole
        self.inverted: dict[Row, list[ProgramIndex]] = {}
        self.prefixes: dict[SeqDescriptor, tuple[Nat, ...]] = {}
        self.answers: dict[Row, frozenset[ProgramIndex]] = {}
        self._last: tuple = (None, None)   # (descriptor, values) of the last read

    def value(self, i: ProgramIndex, n: Nat) -> Optional[Nat]:
        """phi_i(n) under the cap, or None; kept inside the table."""
        rows = self.rows
        if type(i) is int and 0 <= i < len(rows):
            known = rows[i]
            if 0 <= n < len(known):
                return known[n]
        try:
            inside = 0 <= i <= self.cfg.index_bound and 0 <= n <= self.cfg.window
        except TypeError:
            # a Program does not compare with 0; `evaluate` takes it, and
            # taking it here costs the int path no type test
            inside = False
        if not inside:
            out = evaluate(i, n, self.cfg.cap)
            return None if out is None else out.value
        while len(rows) <= i:
            rows.append([])
        known = rows[i]
        while len(known) <= n:
            out = evaluate(i, len(known), self.cfg.cap)
            known.append(None if out is None else out.value)
            if len(known) > self.cfg.window:
                rows[i] = known = tuple(known)
                insort(self.inverted.setdefault(known, []), i)
                while self.done < len(rows) and isinstance(rows[self.done], tuple):
                    self.done += 1
        return known[n]

    def row(self, i: ProgramIndex) -> Row:
        """The whole row of i; one above index_bound is not kept."""
        if not 0 <= i <= self.cfg.index_bound:
            return tuple(self.value(i, n) for n in range(self.cfg.window + 1))
        self.value(i, self.cfg.window)
        return self.rows[i]

    def whole(self, i: ProgramIndex) -> Optional[Row]:
        """The row of i when the table holds all of it, else None."""
        try:
            row = self.rows[i] if 0 <= i < len(self.rows) else None
        except TypeError:
            return None  # a Program, as in `value`
        return row if isinstance(row, tuple) else None

    def agrees(self, i: ProgramIndex, values: tuple[Nat, ...]) -> bool:
        """True iff the row of i starts with values; stops at a miss."""
        row = self.whole(i)
        if row is not None:
            return row[:len(values)] == values
        return all(self.value(i, n) == want for n, want in enumerate(values))

    def least(self, targets: tuple[Nat, ...]) -> Optional[ProgramIndex]:
        """Least index whose row is targets."""
        hits = self.inverted.get(targets)
        stop = hits[0] if hits else self.cfg.index_bound + 1
        # a whole row below stop is not targets; the rest are read until
        # they miss
        for i in range(self.done, stop):
            if self.agrees(i, targets):
                return i
        return stop if hits else None

    def verified(self, targets: tuple[Nat, ...]) -> frozenset[ProgramIndex]:
        """Every index whose row is targets; completes the whole table.

        The answer is kept once the table is whole, when it can no
        longer change, so every later query for targets gets that object
        while it is kept.
        """
        out = self.answers.get(targets)
        if out is None:
            for i in range(self.done, self.cfg.index_bound + 1):
                self.value(i, self.cfg.window)
            out = _kept(self.answers, _QUERY_CAP, targets,
                        frozenset(self.inverted.get(targets, ())))
        return out

    def prefix(self, d: SeqDescriptor) -> tuple[Nat, ...]:
        """d's values on 0..window before its first partial position.

        The last descriptor read is checked by identity before the dict,
        in which equal descriptors share one entry.
        """
        last, out = self._last
        if d is last:
            return out
        out = self.prefixes.get(d)
        if out is None:
            values = []
            for n in range(self.cfg.window + 1):
                v = descriptor_get(d, n)
                if v is None:
                    break
                values.append(v)
            out = _kept(self.prefixes, _QUERY_CAP, d, tuple(values))
        self._last = (d, out)
        return out


_universes: dict[OracleConfig, Universe] = {}
_last: tuple = (None, None)   # (config, table) of the last lookup


def clear_oracle_cache() -> None:
    global _last
    _universes.clear()
    _last = (None, None)


def universe(cfg: OracleConfig) -> Universe:
    """The table of cfg, shared by every query until clear_oracle_cache,
    or until _TABLE_CAP newer tables are made.

    The last lookup's config is checked by identity before the dict, in
    which equal configs share one table; clear_oracle_cache drops both.
    """
    global _last
    last, table = _last
    if cfg is not last:
        table = _universes.get(cfg)
        if table is None:
            table = _kept(_universes, _TABLE_CAP, cfg, Universe(cfg))
        _last = (cfg, table)
    return table


def _require_total(values: tuple[Nat, ...], cfg: OracleConfig) -> tuple[Nat, ...]:
    if len(values) <= cfg.window:
        raise ValueError(f"descriptor is partial at {len(values)}; oracle needs totality")
    return values


def window_targets(d: SeqDescriptor, cfg: OracleConfig) -> tuple[Nat, ...]:
    """d(0), ..., d(window); ValueError when d is partial on the window."""
    return _require_total(universe(cfg).prefix(d), cfg)


def total_on_window(d: SeqDescriptor, cfg: OracleConfig) -> bool:
    """True iff no position of 0..window is partial."""
    return len(universe(cfg).prefix(d)) > cfg.window


# ---------------------------------------------------------------------------
# compatibility


def compatible(i: ProgramIndex, j: ProgramIndex, cfg: OracleConfig) -> bool:
    """False iff phi_i and phi_j both halt at some position of 0..window
    with different values.

    False is final under any larger cap (halting runs replay
    identically); True can flip to False when the cap or window grows,
    never back.
    """
    table = universe(cfg)
    row_i, row_j = table.whole(i), table.whole(j)
    if row_i is not None and row_j is not None:
        for a, b in zip(row_i, row_j):
            if a != b and a is not None and b is not None:
                return False
        return True
    for n in range(cfg.window + 1):
        a = table.value(i, n)
        if a is None:
            continue
        b = table.value(j, n)
        if b is not None and a != b:
            return False
    return True


def window_verify(i: ProgramIndex, d: SeqDescriptor, cfg: OracleConfig) -> bool:
    """Capped stand-in for phi_i = d: agreement on all of 0..window.

    A candidate that disagrees with d before d's first partial position
    is rejected; one that agrees up to it raises ValueError.
    """
    table = universe(cfg)
    values = table.prefix(d)
    if not table.agrees(i, values):
        return False
    _require_total(values, cfg)
    return True


# ---------------------------------------------------------------------------
# the random set R


def in_R(k: Nat, n: Nat, cfg: OracleConfig) -> bool:
    """True iff no candidate i < n (within the universe) maps k to n.

    Exact only relative to the capped universe: a candidate i < n that
    maps k to n past the cap, or lies above cfg.index_bound, is not seen,
    so a True may be a false positive of the true set R (see the module
    docstring).  phi_i(k) is a table cell when k lies inside the window.
    """
    if k < 0 or n < 0:
        raise ValueError("R is indexed by naturals")
    value = universe(cfg).value
    return all(value(i, k) != n for i in range(min(n, cfg.index_bound + 1)))


def search_R(k: Nat, lower: Nat, cfg: OracleConfig, search_limit: Nat) -> Optional[Nat]:
    """Least n in [lower, search_limit] with in_R(k, n); None if none.

    None signals the search window was too small, a reported outcome
    rather than an error.
    """
    for n in range(lower, search_limit + 1):
        if in_R(k, n, cfg):
            return n
    return None


# ---------------------------------------------------------------------------
# brute-force least index


def min_index(d: SeqDescriptor, cfg: OracleConfig) -> Optional[ProgramIndex]:
    """Least i <= index_bound window-verifying d; None when no index fits.

    The ground-truth answer for the whole Godel family at desk scale.
    """
    table = universe(cfg)
    return table.least(_require_total(table.prefix(d), cfg))


def verified_indices(d: SeqDescriptor, cfg: OracleConfig) -> frozenset[ProgramIndex]:
    """Every i <= index_bound window-verifying d, as the table's one
    frozenset for d's values, shared by every caller."""
    table = universe(cfg)
    return table.verified(_require_total(table.prefix(d), cfg))
