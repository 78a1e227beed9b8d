"""Multigraded and graded Betti tables, t_a, and the m2-style printer.

A table of an ideal whose generators fall into blocks in disjoint
variables, I = I_1 + ... + I_k, is the product of the blocks' tables.
Write S_j for the polynomial ring in block j's variables, so that
S = S_1 (x) ... (x) S_k over the field and S/I = S_1/I_1 (x) ... (x)
S_k/I_k.

- The lcm lattice is a product.  A set of generators is the union of
  its parts in each block, and its lcm is the product of their lcms,
  whose supports are disjoint; each lcm of parts is one of its block's
  lattice.  So LCM(I) = LCM(I_1) x ... x LCM(I_k), and m = m_1...m_k
  with m_j the part of m in block j's variables.
- The resolution is a tensor product.  Let F_j be the minimal free
  resolution of S_j/I_j.  The tensor product F_1 (x) ... (x) F_k over
  the field is a complex of free S-modules whose homology is, by the
  Kuenneth formula over a field, the tensor product of the homologies:
  S/I in degree 0 and nothing else, so it resolves S/I.  Its
  differentials map into the maximal ideal, as each F_j's do, so it is
  minimal, and its free module in homological degree i and multidegree
  m is the sum over a_1 + ... + a_k = i of the tensor products of the
  F_j's in degree a_j and multidegree m_j.  Hence, over every field,
  beta_(i, m) = sum over a_1 + ... + a_k = i of prod_j beta_(a_j, m_j).
- The ranks are nonnegative, so m carries a nonzero rank iff every m_j
  does: the nonzero multidegrees of I are the products of one nonzero
  multidegree per block, the bottom among them (beta_(0, 1) = 1).
- The mirror of a product is the OR of the mirrors.  The lattice sorts
  its elements by degree, then by the mirror, the mask's bits reversed
  in a fixed width (lattice._mirrors).  The factors' masks have
  disjoint bits, so their mirrors do too, and the product's degree and
  mirror are the sum of theirs.  One sort of the products by this key
  puts them in lattice order with no walk over the product lattice.
"""

from __future__ import annotations

import dataclasses
from itertools import islice
from json.encoder import encode_basestring_ascii
from math import prod

from .core import MonomialIdeal, SqfMonomial, mask_sort_key
from .errors import OutOfRange, SizeLimitExceeded
from .homology import (
    DEFAULT_FACE_CAP,
    FieldSpec,
    RATIONALS,
    _rows_homology,
    homology_below,
)
from .lattice import DEFAULT_LATTICE_CAP, _lattice_masks, _mirrors, in_lattice


@dataclasses.dataclass(slots=True, eq=False, repr=False)
class BettiTable:
    """Betti numbers of S/I over a fixed field.

    multigraded maps (i, m) to a positive rank; graded aggregates by
    total degree, graded[(i, j)] = sum of multigraded[(i, m)] over
    deg m = j.  t maps a in 1..pd to max{j : graded[(a, j)] > 0}.

    A table is made by betti_table, which hands it the entries of its
    walk, one (mask, ((i, rank), ...)) per nonzero multidegree, in
    lattice order, the one order of a table: the masks come in the
    canonical order (SqfMonomial.sort_key), as the walk over LCM(I)
    reaches them, and the degrees of one mask in increasing i.  These
    entries are its one per-entry store.  graded and t are written from
    them, in the order in which that walk first writes each key.
    nonzero(i) keeps its per-degree lists, read off the entries on
    first use; they are the one place that makes a SqfMonomial per
    entry.  multigraded is built from the entries and those monomials
    on first read, its keys in the entries' order, and kept; the
    complement witness search keeps its per-degree bitset index in
    ``_witness_index`` (see search_complement_witnesses).
    format_betti_json reads the entries as they are.  None of them
    sorts the entries, and each is built once per table and never
    rebuilt, so a table must not be changed once built.
    """

    ideal: MonomialIdeal
    field: FieldSpec
    _entries: list[_Entry]
    graded: dict[tuple[int, int], int]
    pd: int
    t: dict[int, int]
    _multigraded: dict[tuple[int, SqfMonomial], int] | None = dataclasses.field(
        default=None, init=False
    )
    _nonzero: list[list[SqfMonomial]] | None = dataclasses.field(
        default=None, init=False
    )
    _witness_index: dict = dataclasses.field(default_factory=dict, init=False)

    @property
    def multigraded(self) -> dict[tuple[int, SqfMonomial], int]:
        """(i, m) -> beta_(i, m) > 0, in lattice order (do not mutate)."""
        if self._multigraded is None:
            self.nonzero(0)  # makes the monomials, in _nonzero
            self._multigraded = _multigraded(self._entries, self._nonzero)
        return self._multigraded

    def nonzero(self, i: int) -> list[SqfMonomial]:
        """The m with beta_{i,m} != 0, in lattice order (do not mutate)."""
        if self._nonzero is None:
            self._nonzero = _by_degree(self._entries, self.pd)
        return self._nonzero[i] if 0 <= i <= self.pd else []

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
    """The full Betti table, from a walk over LCM(I) per block.

    The generators are first sorted into blocks that share no variable
    (_blocks).  A connected ideal is one block, and its table is the
    walk over LCM(I) (_walk).  Several blocks are each walked on their
    own generators, and the table is the product of theirs (_product;
    proof in the module docstring).  Either way the nonzero
    multidegrees come in lattice order, and one writer, _write, turns
    them into graded and t, in the order the walk over the whole LCM(I)
    would first write their keys; the table keeps the entries (see
    BettiTable), and _by_degree and _multigraded turn them into its
    multigraded and a cap's partial, in lattice order and, within one
    multidegree, in increasing i.

    lattice_cap bounds the elements that each block's lattice search
    finds and, for two or more blocks, the multidegrees of the product,
    the product over the blocks of their nonzero multidegrees, which is
    known before any is written.  Both are at most |LCM(I)|.  face_cap
    bounds the faces actually grown for one multidegree of a block's
    walk (see _walk).  When a cap is hit, the SizeLimitExceeded carries
    entries (i, m) -> rank of the whole table, in lattice order: those
    of the multidegrees finished before the cap, the bottom's
    (0, 1) -> 1 at least.  With several blocks, every entry of a block
    is an entry of the table, the other blocks sitting at their bottom,
    so the partial holds the entries of every block walked so far.
    """
    blocks = _blocks([g.mask for g in I.gens])
    try:
        if len(blocks) == 1:
            entries = _walk(blocks[0], field.p, lattice_cap, face_cap)
        else:
            entries = _product(blocks, field.p, lattice_cap, face_cap)
    except SizeLimitExceeded as e:
        pd = max((ranks[-1][0] for _, ranks in e.partial), default=0)
        partial = _multigraded(e.partial, _by_degree(e.partial, pd))
        raise SizeLimitExceeded(str(e), partial=partial) from None
    graded, t = _write(entries)
    return BettiTable(I, field, entries, graded, max(t, default=0), t)


def _blocks(masks: list[int]) -> list[list[int]]:
    """The generator masks in blocks that share no variable.

    The block of the first generator grows by passes over the
    generators not yet in it, each joining the variables of every
    generator that meets the block so far, until a pass adds none.  A
    connected ideal whose generators each meet an earlier one ends in
    one pass, and any connected ideal is [masks] itself.  Otherwise each
    block lists its generators in their order, and the blocks come in
    the order of their first generators.
    """
    reach, rest = masks[0], masks
    while True:
        left = []
        for g in rest:
            if g & reach:
                reach |= g
            else:
                left.append(g)
        if not left:
            return [masks]
        if len(left) == len(rest):
            return [[g for g in masks if g & reach], *_blocks(left)]
        rest = left


# a nonzero multidegree of a table: (mask, (i, rank) in increasing i)
_Entry = tuple[int, tuple[tuple[int, int], ...]]
# the entry of the bottom 1: beta_(0, 1) = 1 and nothing else
_BOTTOM: _Entry = (0, ((0, 1),))


def _write(entries: list[_Entry]) -> tuple[dict[tuple[int, int], int], dict[int, int]]:
    """graded and t of a table's nonzero multidegrees.

    entries lists the nonzero multidegrees in lattice order, the
    bottom's _BOTTOM first, as _walk and _product return them.  The
    lattice runs by degree, so the ranks of one degree j are summed by i
    and written when j ends, each (i, j) at the place where the walk
    first meets it; and the last degree met in i is t_i.  The least
    degree of beta_i rises strictly with i, so t's keys come in
    increasing order.
    """
    graded = {(0, 0): 1}
    sums: dict[int, int] = {}  # i -> the ranks of degree j so far
    j = 0
    for mask, ranks in islice(entries, 1, None):
        if mask.bit_count() != j:
            for i, rank in sums.items():
                graded[(i, j)] = rank
            sums = {}
            j = mask.bit_count()
        for i, rank in ranks:
            sums[i] = sums.get(i, 0) + rank
    for i, rank in sums.items():
        graded[(i, j)] = rank
    t: dict[int, int] = {}
    for i, j in islice(graded, 1, None):
        t[i] = j
    return graded, t


def _by_degree(entries: list[_Entry], pd: int) -> list[list[SqfMonomial]]:
    """by_degree[i]: the m of the entries with beta_(i, m) > 0, in order.

    One SqfMonomial is made per entry and shared by its degrees.
    """
    by_degree: list[list[SqfMonomial]] = [[] for _ in range(pd + 1)]
    for mask, ranks in entries:
        m = SqfMonomial(mask)
        for i, _ in ranks:
            by_degree[i].append(m)
    return by_degree


def _multigraded(
    entries: list[_Entry], by_degree: list[list[SqfMonomial]]
) -> dict[tuple[int, SqfMonomial], int]:
    """(i, m) -> rank of the entries, in their order and increasing i.

    by_degree is _by_degree(entries): the k-th entry holding degree i
    is by_degree[i][k], whose monomial the key reuses.
    """
    nexts = [iter(monomials).__next__ for monomials in by_degree]
    multigraded = {}
    for _, ranks in entries:
        for i, rank in ranks:
            multigraded[(i, nexts[i]())] = rank
    return multigraded


def _walk(
    masks: list[int], p: int | None, lattice_cap: int, face_cap: int
) -> list[_Entry]:
    """The nonzero multidegrees of the ideal of masks, from its lattice.

    Only lattice elements can carry nonzero multigraded ranks, so the
    iteration is over the lcm lattice rather than all 2^n square-free
    monomials.  The walk is over the masks of the lattice search, in the
    canonical order, and lists the entry of each element with a nonzero
    Betti number, the bottom's _BOTTOM first, in lattice order, with the
    homology of each multidegree in increasing d (homology_below).  An
    element m whose generators below it are exactly its lattice witness,
    k of them, is a Boolean interval and runs no collapse: the witness
    is a shortest tuple joining to m, so each of its generators holds a
    variable that no other one holds, or the tuple without it would join
    to m too.  A set of them then joins to m iff it holds all k, and the
    faces below m are the proper subsets of k vertices: a (k-2)-sphere,
    or {empty face} for k = 1, so beta_(k, m) = 1 over every field and
    no other degree is nonzero.
    face_cap bounds the faces actually grown for one multidegree: those
    of the complex that homology_below grows after collapsing, on the
    Taylor rows or on their Stanley-Reisner complex, whichever bounds
    fewer faces.  A remainder with no variable in three rows is read as
    a graph and grows none, so it never reaches the cap (see the
    homology module docstring).  If a complex exceeds it, the
    SizeLimitExceeded carries the entries of the multidegrees finished
    before it; if the lattice exceeds lattice_cap, it carries the
    bottom's alone.
    """
    entries = [_BOTTOM]
    # ones[i] = ((i, 1),), the ranks shared by every entry whose one nonzero
    # degree is i, with rank 1; no degree exceeds the number of generators,
    # the length of the Taylor resolution
    ones = [((i, 1),) for i in range(len(masks) + 1)]
    try:
        elements, witness = _lattice_masks(masks, lattice_cap)
    except SizeLimitExceeded as e:
        raise SizeLimitExceeded(str(e), partial=entries) from None
    for top in islice(elements, 1, None):
        rows = [top & ~g for g in masks if g | top == top]
        k = len(witness[top])
        if len(rows) == k:
            # a Boolean interval: each generator below m holds a private
            # variable, so the faces below m are the proper subsets of k
            # vertices, a (k-2)-sphere (proof in the docstring)
            entries.append((top, ones[k]))
            continue
        try:
            homology = _rows_homology(rows, p, face_cap)
        except SizeLimitExceeded as e:
            raise SizeLimitExceeded(str(e), partial=entries) from None
        if len(homology) == 1:
            ((d, rank),) = homology.items()
            entries.append((top, ones[d + 2] if rank == 1 else ((d + 2, rank),)))
        elif homology:
            entries.append((top, tuple((d + 2, rank) for d, rank in homology.items())))
    return entries


def _product(
    blocks: list[list[int]], p: int | None, lattice_cap: int, face_cap: int
) -> list[_Entry]:
    """The nonzero multidegrees of the sum of the blocks, from their walks.

    Every tuple of the blocks' nonzero multidegrees, one per block, is a
    nonzero multidegree of the sum, whose ranks are the convolution of
    the factors' (module docstring).  The tuples are put in lattice
    order by the lattice's sort key, degree then mirror (see
    lattice._mirrors), of which each factor carries its share:
    ((degree << w) - mirror) << w | mask, in the width w of the whole
    ideal.  The factors' masks and mirrors have disjoint bits and their
    degrees add, so a product's share is the sum of its factors', and it
    differs from the lattice's key by a constant.  The tuples are listed
    in that order, as _walk lists its elements.

    Each walk is capped as _walk caps it, and the product by the count
    of its multidegrees.  A cap carries the entries of every block
    walked so far, the one that hit it included, in lattice order.
    """
    top = 0
    for masks in blocks:
        for g in masks:
            top |= g
    walks: list[list[_Entry]] = []
    for masks in blocks:
        try:
            walks.append(_walk(masks, p, lattice_cap, face_cap))
        except SizeLimitExceeded as e:
            raise SizeLimitExceeded(str(e), partial=_merged(walks + [e.partial])) from None
    count = prod(map(len, walks))
    if count > lattice_cap:
        raise SizeLimitExceeded(
            f"Betti table exceeds lattice cap {lattice_cap}: "
            f"{count} multidegrees in the product of {len(blocks)} blocks",
            partial=_merged(walks),
        )
    factors = []  # (share of the key, ranks) per nonzero multidegree
    for walk in walks:
        w, mirrors = _mirrors([f for f, _ in walk], top)
        factors.append(
            [
                ((((f.bit_count() << w) - rf) << w) + f, ranks)
                for (f, ranks), rf in zip(walk, mirrors)
            ]
        )
    product = factors[0]
    for factor in factors[1:]:
        product = [
            (key + share, _convolve(ranks, more) if share else ranks)
            for key, ranks in product
            for share, more in factor
        ]
    product.sort()  # the keys are distinct, so no ranks are compared
    ones = (1 << w) - 1
    return [(key & ones, ranks) for key, ranks in product]


def _convolve(
    a: tuple[tuple[int, int], ...], b: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, int], ...]:
    """The ranks of a tensor product: c_k = sum of a_i b_j over i + j = k.

    a and b list (degree, rank) in increasing degree, and so does the
    result.  Most multidegrees have one degree, and skip the sum.
    """
    if len(a) == 1 == len(b):
        ((i, ra),) = a
        ((j, rb),) = b
        return ((i + j, ra * rb),)
    c: dict[int, int] = {}
    for i, ra in a:
        for j, rb in b:
            c[i + j] = c.get(i + j, 0) + ra * rb
    return tuple(sorted(c.items()))


def _merged(walks: list[list[_Entry]]) -> list[_Entry]:
    """The entries of some blocks' walks as one list, in lattice order."""
    entries = dict(entry for walk in walks for entry in walk)  # the bottoms coincide
    return sorted(entries.items(), key=lambda e: mask_sort_key(e[0]))


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
    pass over the table's entries, one name array per mask, grouped by
    degree: the entries' lattice order (see BettiTable) is the canonical
    order within each degree.
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
    # by_degree[i] lists the items of beta_i, each opened by head[i]
    by_degree: list[list[str]] = [[] for _ in range(table.pd + 1)]
    head = [f'{{\n      "i": {i},\n      "monomial": ' for i in range(table.pd + 1)]
    for mask, ranks in table._entries:
        array = ""
        k = 0  # the low 16 bits of mask are the digits of rows k..k+3
        while mask:
            w = mask & 0xFFFF
            array += rows[k][w & 15] + rows[k + 1][w >> 4 & 15]
            array += rows[k + 2][w >> 8 & 15] + rows[k + 3][w >> 12]
            mask >>= 16
            k += 4
        monomial = f"[{array[1:]}\n      ]" if array else "[]"
        for i, rank in ranks:
            by_degree[i].append(f'{head[i]}{monomial},\n      "rank": {rank}\n    }}')
    multi = [item for items in by_degree for item in items]
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
