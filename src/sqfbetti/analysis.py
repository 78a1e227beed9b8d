"""Subadditivity verification and complement witness search.

Everything here is evidence collection over an exactly computed Betti
table: violations of t_{a+b} <= t_a + t_b are read off the table, and
witness pairs are lattice complements whose multigraded Betti numbers
are nonzero in the split homological degrees.
"""

from __future__ import annotations

import dataclasses

from .betti import BettiTable, betti_table, t_max
from .core import MonomialIdeal, SqfMonomial
from .errors import OutOfRange, SqfBettiError
from .homology import RATIONALS, FieldSpec


def _table_for(
    I: MonomialIdeal, field: FieldSpec, table: BettiTable | None
) -> BettiTable:
    """table, checked to be I's over field; computed when None."""
    if table is None:
        return betti_table(I, field=field)
    if (table.field, table.ideal) != (field, I):
        raise SqfBettiError("table was built over another field or ideal")
    return table


@dataclasses.dataclass(slots=True, eq=False, repr=False)
class SubadditivityReport:
    """Exact subadditivity audit of one ideal over one field.

    violations lists every (a, b) with a <= b, a + b <= pd, and
    t_{a+b} > t_a + t_b; witnesses, when requested, maps (i, a, b) to
    complement pairs certifying the inequality's degree bound.
    """

    ideal: MonomialIdeal
    field: FieldSpec
    pd: int
    t: dict[int, int]
    violations: list[tuple[int, int]]
    witnesses: dict[tuple[int, int, int], list[tuple[SqfMonomial, SqfMonomial]]]

    @property
    def holds(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:
        verdict = "holds" if self.holds else f"violated at {self.violations}"
        return f"SubadditivityReport(pd={self.pd}, {verdict})"


def verify_subadditivity(
    I: MonomialIdeal,
    field: FieldSpec = RATIONALS,
    table: BettiTable | None = None,
    with_witnesses: bool = False,
) -> SubadditivityReport:
    """Check t_{a+b} <= t_a + t_b for all a, b > 0 with a + b <= pd.

    with_witnesses additionally records, for every such pair, the first
    complement witness pair found (an empty list when none exists).
    A table over another field or ideal raises SqfBettiError.
    """
    table = _table_for(I, field, table)
    pd = table.pd
    violations = []
    pairs = [
        (a, b) for a in range(1, pd) for b in range(a, pd) if a + b <= pd
    ]
    for a, b in pairs:
        if table.t[a + b] > table.t[a] + table.t[b]:
            violations.append((a, b))
    witnesses: dict = {}
    if with_witnesses:
        for a, b in pairs:
            witnesses[(a + b, a, b)] = search_complement_witnesses(
                I, a + b, a, b, field=field, table=table
            )
    return SubadditivityReport(I, field, pd, dict(table.t), violations, witnesses)


def search_complement_witnesses(
    I: MonomialIdeal,
    i: int,
    a: int,
    b: int,
    field: FieldSpec = RATIONALS,
    all_pairs: bool = False,
    table: BettiTable | None = None,
) -> list[tuple[SqfMonomial, SqfMonomial]]:
    """Complement pairs (m, m2) with beta_{a,m} >= 1 and beta_{b,m2} >= 1.

    The candidates are the table's nonzero entries in degrees a and b,
    which lie in the lcm lattice, so the search is exhaustive over it.
    It reads the degree-b entries R = table.nonzero(b) through a bitset
    index, bit k standing for R[k]: one int per variable x (x divides
    R[k]) and one per generator g (g divides R[k]).  For each m of
    degree a, in lattice order, the candidates are the AND of the ints
    of the variables m lacks (so lcm(m, m2) is the top), less the ints
    of the generators dividing m (so gcd(m, m2) is not in I).  The set
    bits are read from low to high, so the pairs come in lattice order,
    by increasing degree then support of m (then of m2), and the search
    stops at the first hit unless all_pairs is set.  The index of each
    degree is built once per table, on first use, and kept on the
    table.  A table over another field or ideal raises SqfBettiError.
    """
    if a + b != i:
        raise OutOfRange(f"need a + b = i, got {a} + {b} != {i}")
    if a < 1 or b < 1:
        raise OutOfRange("witness degrees must be positive")
    table = _table_for(I, field, table)
    right, holds, below = _degree_index(table, b)
    full = I.vars.full_mask
    every = (1 << len(right)) - 1
    out = []
    for m in table.nonzero(a):
        mask = m.mask
        candidates = every
        lacks = full ^ mask
        while lacks:
            low = lacks & -lacks
            candidates &= holds[low.bit_length() - 1]
            lacks ^= low
        if not candidates:
            continue
        for g, divisible in below:
            if g & mask == g:
                candidates &= ~divisible
        while candidates:
            low = candidates & -candidates
            out.append((m, right[low.bit_length() - 1]))
            if not all_pairs:
                return out
            candidates ^= low
    return out


def _degree_index(
    table: BettiTable, b: int
) -> tuple[list[SqfMonomial], list[int], list[tuple[int, int]]]:
    """(R, holds, below) for R = table.nonzero(b), made once per table.

    Bit k of holds[x] is set when variable x divides R[k]; below holds
    one (mask of g, bits) per generator g, bit k set when g divides R[k].
    """
    index = table._witness_index.get(b)
    if index is None:
        right = table.nonzero(b)
        # transpose the masks' binary digits: one row "0b1" + n digits
        # per entry, R[k] in row len(R) - 1 - k, so that the column of
        # variable x read top-down is holds[x] in binary
        n = len(table.ideal.vars)
        top = 1 << n
        width = n + 3
        rows = "".join([bin(m.mask | top) for m in reversed(right)])
        holds = [int("0" + rows[width - 1 - x :: width], 2) for x in range(n)]
        below = []
        for g in table.ideal.masks:
            divisible = -1
            mask = g
            while mask:
                low = mask & -mask
                divisible &= holds[low.bit_length() - 1]
                mask ^= low
            below.append((g, divisible))
        index = table._witness_index[b] = (right, holds, below)
    return index


@dataclasses.dataclass(slots=True, eq=False, repr=False)
class TopDegreeCheck:
    """t_a + t_b >= r evaluated where the top multidegree survives.

    Inapplicable (and vacuously holding) when beta_{i,top} = 0 or when a
    or b exceeds the projective dimension.
    """

    i: int
    a: int
    b: int
    r: int
    applicable: bool
    holds: bool
    t_a: int | None
    t_b: int | None
    witnesses: list[tuple[SqfMonomial, SqfMonomial]]

    def __repr__(self) -> str:
        if not self.applicable:
            return f"TopDegreeCheck(i={self.i}, inapplicable)"
        return (
            f"TopDegreeCheck(t_{self.a}+t_{self.b}={self.t_a}+{self.t_b} "
            f">= r={self.r}: {self.holds})"
        )


def top_degree_check(
    I: MonomialIdeal,
    i: int,
    a: int,
    b: int,
    field: FieldSpec = RATIONALS,
    table: BettiTable | None = None,
) -> TopDegreeCheck:
    """Evaluate t_a + t_b >= r = deg lcm(generators) when it applies.

    Applicability needs beta_{i, top} nonzero (so that t_i = r) and both
    a, b within the projective dimension; otherwise the statement is
    vacuous and flagged inapplicable.  A table over another field or
    ideal raises SqfBettiError.
    """
    if a + b != i:
        raise OutOfRange(f"need a + b = i, got {a} + {b} != {i}")
    if a < 1 or b < 1:
        raise OutOfRange("split degrees must be positive")
    table = _table_for(I, field, table)
    top = I.top()
    r = top.degree
    applicable = (
        1 <= a <= table.pd
        and 1 <= b <= table.pd
        and table.multigraded.get((i, top), 0) >= 1
    )
    if not applicable:
        return TopDegreeCheck(i, a, b, r, False, True, None, None, [])
    t_a = t_max(table, a)
    t_b = t_max(table, b)
    holds = t_a + t_b >= r
    witnesses = search_complement_witnesses(I, i, a, b, field=field, table=table)
    return TopDegreeCheck(i, a, b, r, applicable, holds, t_a, t_b, witnesses)
