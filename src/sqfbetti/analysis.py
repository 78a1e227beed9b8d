"""Subadditivity verification and complement witness search.

Everything here is evidence collection over an exactly computed Betti
table: violations of t_{a+b} <= t_a + t_b are read off the table, and
witness pairs are lattice complements whose multigraded Betti numbers
are nonzero in the split homological degrees.
"""

from __future__ import annotations

from .betti import BettiTable, betti_table, t_max
from .core import MonomialIdeal, SqfMonomial
from .errors import OutOfRange, SqfBettiError
from .homology import RATIONALS, FieldSpec
from .lattice import complementary


def _table_for(
    I: MonomialIdeal, field: FieldSpec, table: BettiTable | None
) -> BettiTable:
    """table, checked to be I's over field; computed when None."""
    if table is None:
        return betti_table(I, field=field)
    if (table.field, table.ideal) != (field, I):
        raise SqfBettiError("table was built over another field or ideal")
    return table


class SubadditivityReport:
    """Exact subadditivity audit of one ideal over one field.

    violations lists every (a, b) with a <= b, a + b <= pd, and
    t_{a+b} > t_a + t_b; witnesses, when requested, maps (i, a, b) to
    complement pairs certifying the inequality's degree bound.
    """

    __slots__ = ("ideal", "field", "pd", "t", "violations", "witnesses")

    def __init__(
        self,
        ideal: MonomialIdeal,
        field: FieldSpec,
        pd: int,
        t: dict[int, int],
        violations: list[tuple[int, int]],
        witnesses: dict[tuple[int, int, int], list[tuple[SqfMonomial, SqfMonomial]]],
    ):
        self.ideal = ideal
        self.field = field
        self.pd = pd
        self.t = t
        self.violations = violations
        self.witnesses = witnesses

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
    which lie in the lcm lattice, so the scan is exhaustive over it.  It
    runs in lattice order, by increasing degree then support of m (then
    of m2), and stops at the first hit unless all_pairs is set.  A table
    over another field or ideal raises SqfBettiError.
    """
    if a + b != i:
        raise OutOfRange(f"need a + b = i, got {a} + {b} != {i}")
    if a < 1 or b < 1:
        raise OutOfRange("witness degrees must be positive")
    table = _table_for(I, field, table)

    def nonzero_in(degree: int) -> list[SqfMonomial]:
        found = [
            m for (d, m), rank in table.multigraded.items() if d == degree and rank
        ]
        return sorted(found, key=SqfMonomial.sort_key)

    right = nonzero_in(b)
    full = I.vars.full_mask
    out = []
    for m in nonzero_in(a):
        # the variables m lacks; an m2 without all of them cannot complete the lcm
        need = full & ~m.mask
        for m2 in right:
            if m2.mask & need == need and complementary(I, m, m2):
                out.append((m, m2))
                if not all_pairs:
                    return out
    return out


class TopDegreeCheck:
    """t_a + t_b >= r evaluated where the top multidegree survives.

    Inapplicable (and vacuously holding) when beta_{i,top} = 0 or when a
    or b exceeds the projective dimension.
    """

    __slots__ = (
        "i",
        "a",
        "b",
        "r",
        "applicable",
        "holds",
        "t_a",
        "t_b",
        "witnesses",
    )

    def __init__(
        self,
        i: int,
        a: int,
        b: int,
        r: int,
        applicable: bool,
        holds: bool,
        t_a: int | None,
        t_b: int | None,
        witnesses: list[tuple[SqfMonomial, SqfMonomial]],
    ):
        self.i = i
        self.a = a
        self.b = b
        self.r = r
        self.applicable = applicable
        self.holds = holds
        self.t_a = t_a
        self.t_b = t_b
        self.witnesses = witnesses

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
