"""Multigraded and graded Betti tables, t_a, and the m2-style printer."""

from __future__ import annotations

from itertools import islice
from json.encoder import encode_basestring_ascii

from .core import MonomialIdeal, SqfMonomial
from .errors import OutOfRange, ParseError, SizeLimitExceeded
from .homology import (
    DEFAULT_FACE_CAP,
    FieldSpec,
    RATIONALS,
    _rows_homology,
    homology_below,
)
from .lattice import DEFAULT_LATTICE_CAP, _lattice_masks, in_lattice


class BettiTable:
    """Betti numbers of S/I over a fixed field.

    multigraded maps (i, m) to a positive rank; graded aggregates by
    total degree, graded[(i, j)] = sum of multigraded[(i, m)] over
    deg m = j.  t maps a in 1..pd to max{j : graded[(a, j)] > 0}.

    multigraded is in lattice order, the one order of a table: its keys
    come with their m in the canonical order (SqfMonomial.sort_key), as
    betti_table's walk over LCM(I) reaches them.  nonzero(i) and
    format_betti_json read that order as it is and sort nothing, so a
    table built by hand must insert its entries in it too.  nonzero(i)
    keeps its per-degree lists, read off multigraded on first use, and
    the complement witness search its per-degree bitset index in
    ``_witness_index`` (see search_complement_witnesses).  Both are built
    once per table and never rebuilt, so a table must not be changed
    once built.
    """

    __slots__ = (
        "ideal",
        "field",
        "multigraded",
        "graded",
        "pd",
        "t",
        "_nonzero",
        "_witness_index",
    )

    def __init__(
        self,
        ideal: MonomialIdeal,
        field: FieldSpec,
        multigraded: dict[tuple[int, SqfMonomial], int],
        graded: dict[tuple[int, int], int],
        pd: int,
        t: dict[int, int],
    ):
        self.ideal = ideal
        self.field = field
        self.multigraded = multigraded
        self.graded = graded
        self.pd = pd
        self.t = t
        self._nonzero: dict[int, list[SqfMonomial]] | None = None
        self._witness_index: dict = {}

    def nonzero(self, i: int) -> list[SqfMonomial]:
        """The m with beta_{i,m} != 0, in lattice order (do not mutate)."""
        if self._nonzero is None:
            self._nonzero = {}
            for (d, m), rank in self.multigraded.items():
                if rank:
                    self._nonzero.setdefault(d, []).append(m)
        return self._nonzero.get(i, [])

    def totals(self) -> tuple[int, ...]:
        """(beta_0, beta_1, ..., beta_pd)."""
        out = [0] * (self.pd + 1)
        for (i, _), rank in self.graded.items():
            out[i] += rank
        return tuple(out)

    def __repr__(self) -> str:
        return (
            f"BettiTable(pd={self.pd}, totals={self.totals()}, "
            f"field={self.field.label})"
        )


def multigraded_betti(
    I: MonomialIdeal,
    i: int,
    m: SqfMonomial,
    field: FieldSpec = RATIONALS,
    face_cap: int = DEFAULT_FACE_CAP,
) -> int:
    """beta_{i,m}(S/I): reduced homology of the Taylor faces below m.

    The ranks come from homology_below, so face_cap counts the faces
    grown for the collapsed complex, none for a graph remainder.

    Zero whenever m is not a join of generators (equivalently, not an
    lcm-lattice element): only those multidegrees carry Betti numbers,
    and the homology formula reads off the rest.  i = 0 is the free rank
    of S/I itself: 1 at multidegree 1.
    """
    if i < 0:
        raise OutOfRange(f"homological degree {i} is negative")
    if i == 0:
        return 1 if m.is_one else 0
    if not in_lattice(I, m):
        return 0
    return homology_below(I, m, field, face_cap).get(i - 2, 0)


def betti_table(
    I: MonomialIdeal,
    field: FieldSpec = RATIONALS,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
    face_cap: int = DEFAULT_FACE_CAP,
) -> BettiTable:
    """The full Betti table, iterating multidegrees over LCM(I).

    Only lattice elements can carry nonzero multigraded ranks, so the
    iteration is over LCM(I) rather than all 2^n square-free monomials.
    The walk is over the masks of the lattice search, in the canonical
    order, so multigraded comes out in lattice order (see BettiTable).
    It makes a SqfMonomial only for a multidegree it records, one with a
    nonzero Betti number.  An element m whose generators below it are
    exactly its lattice witness, k of them, is a Boolean interval and
    runs no collapse: the witness is a shortest tuple
    joining to m, so each of its generators holds a variable that no
    other one holds, or the tuple without it would join to m too.  A set
    of them then joins to m iff it holds all k, and the faces below m
    are the proper subsets of k vertices: a (k-2)-sphere, or {empty
    face} for k = 1, so beta_(k, m) = 1 over every field and no other
    degree is nonzero.  face_cap bounds the faces actually grown for
    one multidegree: those of the complex that homology_below grows
    after collapsing, on the Taylor rows or on their Stanley-Reisner
    complex, whichever bounds fewer faces.  A remainder with no variable
    in three rows is read as a graph and grows none, so it never
    reaches the cap (see the homology module docstring).  If a complex
    exceeds it, the SizeLimitExceeded carries the multigraded entries
    (i, m) -> rank of the multidegrees finished before it.
    """
    masks = [g.mask for g in I.gens]
    elements, witness = _lattice_masks(masks, lattice_cap)
    one = SqfMonomial()  # the bottom, elements[0]
    multigraded = {(0, one): 1}
    graded = {(0, 0): 1}
    # the lattice runs by degree, so the last degree met in i is t_i; the
    # least degree of beta_i rises strictly with i, so t's keys come in
    # increasing order
    t: dict[int, int] = {}
    for top in islice(elements, 1, None):
        rows = [top & ~g for g in masks if g | top == top]
        k = len(witness[top])
        if len(rows) == k:
            # a Boolean interval: each generator below m holds a private
            # variable, so the faces below m are the proper subsets of k
            # vertices, a (k-2)-sphere (proof in the docstring)
            homology = ((k - 2, 1),)
        else:
            try:
                homology = _rows_homology(rows, field.p, face_cap).items()
            except SizeLimitExceeded as e:
                raise SizeLimitExceeded(str(e), partial=multigraded) from None
            if not homology:
                continue
        m = SqfMonomial(top)
        j = top.bit_count()
        for d, rank in homology:
            i = d + 2
            multigraded[(i, m)] = rank
            graded[(i, j)] = graded.get((i, j), 0) + rank
            t[i] = j
    return BettiTable(I, field, multigraded, graded, max(t, default=0), t)


def t_max(table: BettiTable, a: int) -> int:
    """t_a = max{j : beta_{a,j}(S/I) != 0}."""
    if not 1 <= a <= table.pd:
        raise OutOfRange(f"a={a} outside 1..pd={table.pd}")
    return table.t[a]


def format_betti_m2(table: BettiTable) -> str:
    """The standard computer-algebra table layout.

    Columns are homological degrees, rows are j - i, zero entries print
    as a dot.  Right-aligned columns with single-space separators.
    """
    cols = list(range(table.pd + 1))
    rows_lo = min(j - i for (i, j) in table.graded)
    rows_hi = max(j - i for (i, j) in table.graded)
    rows = list(range(rows_lo, rows_hi + 1))

    def cell(i: int, k: int) -> str:
        rank = table.graded.get((i, k + i), 0)
        return str(rank) if rank else "."

    totals = table.totals()
    grid = [[str(i) for i in cols]]
    grid.append([str(totals[i]) for i in cols])
    for k in rows:
        grid.append([cell(i, k) for i in cols])
    widths = [max(len(r[c]) for r in grid) for c in range(len(cols))]
    labels = ["", "total:"] + [f"{k}:" for k in rows]
    lw = max(len(s) for s in labels)
    lines = []
    for label, row in zip(labels, grid):
        cells = " ".join(s.rjust(w) for s, w in zip(row, widths))
        lines.append(f"{label.rjust(lw)} {cells}")
    return "\n".join(lines)


def parse_betti_m2(text: str) -> dict[tuple[int, int], int]:
    """Parse the m2 layout back to the graded map (inverse of the printer).

    Only graded data lives in the layout, so that is what comes back;
    the totals row is cross-checked.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ParseError("not an m2 betti table")
    cols = [_int(tok) for tok in lines[0].split()]
    totals_line = lines[1].split()
    if totals_line[0] != "total:":
        raise ParseError("missing total: row")
    totals = [_int(tok) for tok in totals_line[1:]]
    if len(totals) != len(cols):
        raise ParseError("totals row width mismatch")
    graded: dict[tuple[int, int], int] = {}
    for ln in lines[2:]:
        label, *cells = ln.split()
        if not label.endswith(":"):
            raise ParseError(f"bad row label {label!r}")
        k = _int(label[:-1])
        if len(cells) != len(cols):
            raise ParseError("row width mismatch")
        for i, tok in zip(cols, cells):
            if tok != ".":
                graded[(i, k + i)] = _int(tok)
    for i, total in zip(cols, totals):
        if sum(rank for (a, _), rank in graded.items() if a == i) != total:
            raise ParseError(f"totals row disagrees at column {i}")
    return graded


def _int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"not an integer: {tok!r}") from None


def _array(items: list[str], indent: str) -> str:
    """A JSON array of encoded items, its closing bracket at indent."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def format_betti_json(table: BettiTable) -> str:
    """The table as JSON text (a str, without a trailing newline).

    The text is ``json.dumps(obj, indent=2, sort_keys=True)`` of an
    object whose keys come in this order: ``field`` (the field's label);
    ``graded``, one ``{"i", "j", "rank"}`` object per graded entry,
    sorted by (i, j); ``multigraded``, one ``{"i", "monomial", "rank"}``
    object per multigraded entry, the monomial as its variable names,
    sorted by i and then the canonical monomial order; ``pd``; ``t``,
    mapping str(a) to t_a with the keys sorted as strings (so "10"
    before "2"); ``totals``; and ``variables``, the variable names in
    table order.  The text is written from fixed templates.  Each name is
    encoded once per table, as an array item: a comma, a newline, eight
    spaces and the name.  Each 4-bit digit of the variable table gets a
    row of up to 16 strings, entry d joining the items of the set bits of
    d in bit order.  A monomial's name array is the row entries of its
    mask's digits, joined, with the first comma dropped (``[]`` for the
    mask 0).  The walk takes a 16-bit word, four digits, at a time, up to
    the mask's highest set bit; the entry of the digit 0 is "", so an
    empty word adds nothing.  The multigraded entries are written in one
    pass over ``multigraded``, grouped by degree: the table's lattice
    order (see BettiTable) is the canonical order within each degree.
    """
    names = [encode_basestring_ascii(v) for v in table.ideal.vars.names]
    # rows[k][d]: the items of the set bits of the digit d at bits 4k..4k+3,
    # joined from those of its two 2-bit halves; three empty rows at the
    # end, so that every 16-bit word of a mask has four rows
    items = [",\n        " + name for name in names]
    halves = [("", a, b, a + b) for a, b in zip(items[::2], items[1::2] + [""])]
    rows = [
        [lo + hi for hi in high for lo in low]
        for low, high in zip(halves[::2], halves[1::2] + [("",)])
    ] + [[""]] * 3
    by_degree: dict[int, list[str]] = {}
    for (i, m), rank in table.multigraded.items():
        mask = m.mask
        array = ""
        k = 0  # the low 16 bits of mask are the digits of rows k..k+3
        while mask:
            w = mask & 0xFFFF
            array += rows[k][w & 15] + rows[k + 1][w >> 4 & 15]
            array += rows[k + 2][w >> 8 & 15] + rows[k + 3][w >> 12]
            mask >>= 16
            k += 4
        monomial = f"[{array[1:]}\n      ]" if array else "[]"
        by_degree.setdefault(i, []).append(
            f'{{\n      "i": {i},\n      "monomial": {monomial},\n'
            f'      "rank": {rank}\n    }}'
        )
    multi = [entry for i in sorted(by_degree) for entry in by_degree[i]]
    graded = [
        f'{{\n      "i": {i},\n      "j": {j},\n      "rank": {rank}\n    }}'
        for (i, j), rank in sorted(table.graded.items())
    ]
    t = sorted((str(a), v) for a, v in table.t.items())
    t_text = (
        "{\n    " + ",\n    ".join(f'"{a}": {v}' for a, v in t) + "\n  }" if t else "{}"
    )
    return (
        "{\n"
        f'  "field": {encode_basestring_ascii(table.field.label)},\n'
        f'  "graded": {_array(graded, "  ")},\n'
        f'  "multigraded": {_array(multi, "  ")},\n'
        f'  "pd": {table.pd},\n'
        f'  "t": {t_text},\n'
        f'  "totals": {_array([str(n) for n in table.totals()], "  ")},\n'
        f'  "variables": {_array(names, "  ")}\n'
        "}"
    )
