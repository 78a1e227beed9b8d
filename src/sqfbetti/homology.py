"""Taylor subcomplexes below a multidegree and exact reduced homology.

Betti numbers need the reduced homology of the Taylor faces below an
lcm-lattice element m: the sets of generators whose lcm strictly
divides m.  Write r_g = m minus g for a generator g | m.  A set G has
lcm below m iff the r_g of G share a variable, so the complex is the
union over the variables x of the simplices D_x = {g : x in r_g}.
homology_below collapses it on these rows before building any face,
applying three rules until none fires:

A. Drop a variable x when some variable y != x lies in every row that
   holds x: D_x is a face of D_y, so the union is unchanged.
B. Drop a row contained in another row, and all but one of equal rows:
   that generator is dominated, and deleting a dominated vertex is a
   strong collapse (Barmak-Minian, "Strong homotopy types, nerves and
   collapses", 2012), which keeps the homotopy type.
C. If a variable lies in every row but r_a, the complex without a is a
   simplex, so the complex is homotopy equivalent to the suspension of
   the link of a: remove a, intersect every other row with r_a, and
   raise the degree shift by one.  A variable in every row makes the
   complex a simplex, a cone.

The rules run on plain masks.  The first rows form an antichain of
distinct masks, because r_a lies in r_b iff g_b divides g_a and the
generators are minimal; so B first fires after C or A has cut rows,
and runs after each cut.  C is tried first: one pass over the rows
keeps the variables in every row so far and those in all of them but
one.  A variable left in every row ends the collapse with a cone.
Each variable that misses exactly one row names that row, and every
named row is peeled in row order, keeping ra, the product of the rows
peeled so far.  A variable that misses only r_a lies in every other
row, the earlier peeled ones too, so after their peels it still misses
only a's row, now r_a & ra: a is peeled while that row is nonzero and
some other row is left, and the last row is kept if no other is.  If
r_a & ra is 0, a is no vertex, and every row left holds a's variable:
a nonempty simplex, so a cone.  A single row kept ends the collapse,
intersected with ra: a point, or {empty face} if that is 0.  Two or
more rows kept are intersected with ra, and B runs once.  Only when C
does not fire are the variable columns built, for A.

The rules are combinatorial and hold over every field; for most
multidegrees they leave one row, a point or {empty face}, and no
linear algebra is left (a collapse in the spirit of discrete Morse
theory for the Taylor resolution, Batzies-Welker, "Discrete Morse
theory for cellular resolutions", 2002).

A remainder of two or more rows in which no variable lies in three rows
is a graph, and its homology is read off with no face grown and nothing
eliminated.  Every D_x then has one or two vertices, so the faces are
the empty face, the rows, all nonzero, and the pairs of rows that share
a variable.  _collapse returns two or more rows only when rule A no
longer fires, and then the variable columns (the set of rows holding
each variable) are distinct and none contains another.  So no two
variables are held by the same pair of rows: each variable held by two
rows is one edge, and no edge repeats.  A row that shares no variable
with another holds exactly one, since two private variables would have
equal columns: it is an isolated vertex.  A graph with V vertices, E
edges and c components has h_0 = c - 1 and h_1 = E - V + c over every
field.  Rows of two variables each around an n-cycle, n >= 4, are such
a graph, a circle.

Any other remainder is grown in one of two ways.  Grown on its rows,
it can have up to 2^rows faces.  Its union of simplices is the nerve
of the simplices on the rows, so by the nerve lemma it is
homotopy equivalent to the complex L that the rows generate over their
variables U, and L is Alexander dual to the Stanley-Reisner complex
D' = {F in U : F contains U minus r_a for no row a}, the complex of
Hochster's formula (Hochster 1977; Miller-Sturmfels, Combinatorial
Commutative Algebra, Thm. 5.6 and Cor. 5.12).  So over any field
h_d = h_(|U|-d-3)(D').  The path is chosen from two bounds read off the
rows: the faces on the rows are the union of the simplices D_x, so at
most 1 + sum_x (2^c_x - 1) with c_x the rows holding x, and D' has at
most 2^|U| faces.  A remainder is grown as D', each variable carrying
the masks U minus r_a it would complete, iff its bound is the smaller.
On the 12-cycle's top the bounds are 12277 and 4096, and D' has 322
faces against 3774 on the rows.

What is left, and the uncollapsed complexes of taylor_faces_below, are
eliminated exactly.  Each boundary map is built as sparse columns of
+-1 entries and reduced by one elimination routine in Python integers,
with unit pivots subtracting in place: exact over the rationals, and
modulo p over a prime field.  The maps are reduced from the top
dimension down with clearing (Chen-Kerber, "Persistent homology
computation with a twist", 2011), so columns already known to be
dependent are never built.
"""

from __future__ import annotations

import dataclasses
from math import gcd
from typing import Iterable, Sequence

from .core import MonomialIdeal, SqfMonomial
from .errors import ParseError, SizeLimitExceeded

DEFAULT_FACE_CAP = 2**20


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FieldSpec:
    """Coefficient field: the rationals, or GF(p) for a prime p < 2^31."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if not isinstance(p, int):
                raise ParseError(f"prime must be an int, got {p!r}")
            if not 2 <= p < 2**31:
                raise ParseError(f"prime must be in [2, 2^31), got {p}")
            if not _is_prime(p):
                raise ParseError(f"{p} is not prime")
        self.p = p

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(None)

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls(p)

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """'q' for the rationals, 'p:<prime>' for a prime field."""
        if text == "q":
            return cls(None)
        if text.startswith("p:"):
            try:
                return cls(int(text[2:]))
            except ValueError as e:
                if isinstance(e, ParseError):
                    raise
                raise ParseError(f"bad field spec {text!r}") from None
        raise ParseError(f"bad field spec {text!r} (expected 'q' or 'p:<prime>')")

    @property
    def label(self) -> str:
        return "QQ" if self.p is None else f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self) -> int:
        return hash(self.p)

    def __repr__(self) -> str:
        return f"FieldSpec({self.label})"


RATIONALS = FieldSpec.rationals()
GF_32003 = FieldSpec.prime(32003)


@dataclasses.dataclass(slots=True, eq=False, repr=False)
class ChainComplexRanks:
    """Face counts, boundary ranks, and reduced homology per dimension.

    h_i = c_i - r_i - r_{i+1}, with c_{-1} = 1 whenever the complex is
    not Void; the Void complex has a zero chain complex throughout.
    """

    face_counts: dict[int, int]
    boundary_ranks: dict[int, int]
    homology_ranks: dict[int, int]
    field: FieldSpec

    def r(self, d: int) -> int:
        return self.boundary_ranks.get(d, 0)

    def h(self, d: int) -> int:
        return self.homology_ranks.get(d, 0)

    def __repr__(self) -> str:
        hs = {d: v for d, v in sorted(self.homology_ranks.items()) if v}
        return f"ChainComplexRanks(h={hs}, field={self.field.label})"


def taylor_faces_below(
    I: MonomialIdeal, m: SqfMonomial, cap: int = DEFAULT_FACE_CAP
) -> list[list[int]]:
    """Subsets of generators whose lcm strictly divides m, in layers.

    layers[k] lists the k-generator faces as generator masks, as
    _grow_faces grows them.  Only generators dividing m can appear
    (anything else already fails divisibility), and any subset whose lcm
    reaches m exactly is pruned along with all of its supersets.  m = 1
    gives [], the Void complex: not even the empty face.
    """
    if m.is_one:
        return []
    rows = [(i, m.mask & ~g.mask) for i, g in enumerate(I.gens) if g.divides(m)]
    return _grow_faces(rows, cap)


def _grow_faces(rows: Sequence[tuple[int, int]], cap: int) -> list[list[int]]:
    """Faces of the union of the simplices D_x = {v : x in row of v}.

    rows lists (vertex, variable mask) in ascending vertex order; a set
    of vertices is a face iff its rows share a variable, and the empty
    face shares them all.  For the Taylor faces below m != 1 the row of
    a generator g is m minus g, so a shared variable is one that the
    lcm misses.  A set that shares none is pruned with its supersets.
    layers[k] lists the k-vertex faces as vertex masks, grown one vertex
    at a time; more than cap faces in all raise SizeLimitExceeded.
    """
    layers = [[0]]
    layer = [(0, -1, -1)]  # (face mask, last position in rows, shared variables)
    count = 1
    while layer:
        grown = []
        for fmask, last, common in layer:
            for pos in range(last + 1, len(rows)):
                v, row = rows[pos]
                shared = common & row
                if shared:
                    grown.append((fmask | 1 << v, pos, shared))
            if count + len(grown) > cap:
                raise SizeLimitExceeded(f"face count exceeds cap {cap}", partial=None)
        if grown:
            count += len(grown)
            layers.append([f for f, _, _ in grown])
        layer = grown
    return layers


def _grow_dual(rows: Sequence[int], used: int, cap: int) -> list[list[int]]:
    """Faces of the Stanley-Reisner complex of the rows, as variable masks.

    Over the variables U = used of the rows, a set F of variables is a
    face iff it contains U minus r_a for no row a: the complex of the
    monomials outside the ideal that the U minus r_a generate.  Each
    variable carries the masks U minus r_a that hold it, the ones it can
    complete, so a face F grows by x iff F | x contains none of x's
    masks.  layers[k] lists the k-variable faces, grown one variable at
    a time in ascending order; more than cap faces in all raise
    SizeLimitExceeded, as in _grow_faces.
    """
    gens = [used & ~r for r in rows]
    forbids = []  # (variable, the masks it forbids)
    rest = used
    while rest:
        x = rest & -rest
        rest ^= x
        forbids.append((x, [g for g in gens if g & x]))
    layers = [[0]]
    layer = [(0, -1)]  # (face mask, last position in forbids)
    count = 1
    while layer:
        grown = []
        for fmask, last in layer:
            for pos in range(last + 1, len(forbids)):
                x, masks = forbids[pos]
                f = fmask | x
                for g in masks:
                    if g & f == g:
                        break
                else:
                    grown.append((f, pos))
            if count + len(grown) > cap:
                raise SizeLimitExceeded(f"face count exceeds cap {cap}", partial=None)
        if grown:
            count += len(grown)
            layers.append([f for f, _ in grown])
        layer = grown
    return layers


def _maximal(masks: Iterable[int]) -> list[int]:
    """The distinct masks that no other mask strictly contains.

    Masks are tried largest first, so a mask is kept iff no kept mask
    contains it; of equal masks one is kept.
    """
    kept: list[int] = []
    for a in sorted(set(masks), key=int.bit_count, reverse=True):
        for b in kept:
            if a & b == a:
                break
        else:
            kept.append(a)
    return kept


def homology_below(
    I: MonomialIdeal,
    m: SqfMonomial,
    field: FieldSpec = RATIONALS,
    cap: int = DEFAULT_FACE_CAP,
) -> dict[int, int]:
    """Nonzero reduced homology ranks {d: h_d} of the Taylor faces below m.

    The same ranks as reduced_homology_ranks(taylor_faces_below(I, m)),
    computed from a collapsed model by _rows_homology on the rows
    r_g = m minus g of the generators g | m, with the keys in
    increasing d on every path, so betti_table writes the degrees of
    one multidegree in increasing i.
    m = 1 gives the Void complex: no homology at all.
    """
    if m.is_one:
        return {}
    top = m.mask
    return _rows_homology(
        [top & ~g.mask for g in I.gens if g.mask | top == top], field.p, cap
    )


def _rows_homology(rows: list[int], p: int | None, cap: int) -> dict[int, int]:
    """Nonzero reduced homology {d: h_d} of the union of the D_x of the rows.

    rows are the r_g = m minus g of the generators g | m, for some
    m != 1; two or more of them form an antichain of distinct nonzero
    masks, since r_a is in r_b iff g_b | g_a.  _collapse runs the three
    rules of the module docstring.  A remainder with no variable in
    three rows is a graph, read off by _graph_homology; _finish grows
    and eliminates any other remainder, on the Taylor rows or on their
    Stanley-Reisner complex, whichever bounds fewer faces.  cap counts
    the faces actually grown, so a graph remainder, which grows none,
    never reaches it.  The keys come in increasing d on every path.
    """
    rows, shift = _collapse(rows)
    if len(rows) < 2:
        # {empty face} when the row is 0 or there is none, else a cone
        return {shift - 1: 1} if not rows or not rows[0] else {}
    homology = _graph_homology(rows)
    if homology is None:
        homology = _finish(rows, p, cap)
    return {d + shift: h for d, h in homology.items()}


def _graph_homology(rows: Sequence[int]) -> dict[int, int] | None:
    """Nonzero reduced homology {d: h_d} of a remainder that is a graph.

    rows are two or more rows left by _collapse.  None if a variable lies
    in three of them; otherwise the union of the D_x is the graph whose
    vertices are the rows and whose edges are the variables held by two
    rows, one edge each (see the module docstring), so h_0 = components
    - 1 and h_1 = edges - rows + components over every field.
    """
    once = twice = 0  # the variables held by at least one row, by two
    for r in rows:
        if twice & r:
            return None
        twice |= once & r
        once |= r
    parts: list[int] = []  # the variables of each component of the rows so far
    for r in rows:
        joined, apart = r, []
        for c in parts:
            if c & r:
                joined |= c
            else:
                apart.append(c)
        apart.append(joined)
        parts = apart
    components = len(parts)
    homology = {0: components - 1, 1: twice.bit_count() - len(rows) + components}
    return {d: h for d, h in homology.items() if h}


def _collapse(rows: list[int]) -> tuple[list[int], int]:
    """Apply the rules until none fires: the rows left and the degree shift.

    One pass over the rows finds the variables in every row, which make
    the complex a simplex, and those in all rows but one; C peels every
    row that one of the latter misses in that pass, and a peel that
    keeps one row ends the collapse with it.  A runs only when C does
    not fire, and B after each cut.  The homology of the input rows is
    that of the rows left, raised by the shift; a cone is left as one
    nonzero row.  k rows whose generators each hold a private variable,
    a Boolean interval, are peeled down to the row 0 with shift k - 1;
    betti_table reads that answer off the lattice witness instead.
    """
    shift = 0
    while len(rows) > 1:
        # no row is 0, so each a below is a vertex; A empties no row
        every, but_one = -1, 0  # variables in every row so far, in all but one
        for r in rows:
            but_one = but_one & r | every & ~r
            every &= r
        if every:
            return [every], shift  # D_x holds every vertex: a simplex
        if but_one:
            # C: x in every row but r_a makes del(a) a simplex, and the
            # complex the suspension of link(a).  x lies in every row
            # peeled before a, so it still misses only a's row
            peeled, kept = [], []
            for r in rows:
                if but_one & ~r:
                    peeled.append(r)
                else:
                    kept.append(r)
            if not kept:
                kept.append(peeled.pop())
            ra = -1  # the product of the rows peeled so far
            for r in peeled:
                if not r & ra:
                    # a is no vertex and x lies in every row left: a simplex
                    return [ra], shift
                ra &= r
                shift += 1
            if len(kept) == 1:
                return [kept[0] & ra], shift  # a point, or {empty face} if 0
            rows = [rb & ra for rb in kept]
        else:
            holders: dict[int, int] = {}  # variable -> mask of the rows holding it
            for a, ra in enumerate(rows):
                while ra:
                    x = ra & -ra
                    ra ^= x
                    holders[x] = holders.get(x, 0) | 1 << a
            owner: dict[int, int] = {}  # the lowest variable of each column
            for x, c in holders.items():
                owner.setdefault(c, x)
            kept = _maximal(owner)  # A: dominated variables
            if len(kept) == len(holders):
                break
            keep = 0
            for c in kept:
                keep |= owner[c]
            rows = [ra & keep for ra in rows]
        rows = _maximal(rows)  # B: dominated generators, after a cut
    return rows, shift


def _finish(rows: Sequence[int], p: int | None, cap: int) -> dict[int, int]:
    """Nonzero reduced homology {d: h_d} of the union of the D_x of the rows.

    rows are two or more distinct nonzero masks, none containing
    another.  They are finished on their Stanley-Reisner complex when
    its face bound 2^|U| is below the bound on their own faces, and on
    the rows otherwise (see the module docstring).
    """
    used = 0
    for r in rows:
        used |= r
    taylor = 1  # 1 + sum of 2^c_x - 1 over the variables x
    rest = used
    while rest:
        x = rest & -rest
        rest ^= x
        taylor += (1 << sum(1 for r in rows if r & x)) - 1
    if 1 << used.bit_count() < taylor:
        return _dual_homology(rows, used, p, cap)
    homology = _layer_ranks(_grow_faces(list(enumerate(rows)), cap), p)[2]
    return {d: h for d, h in homology.items() if h}


def _dual_homology(
    rows: Sequence[int], used: int, p: int | None, cap: int
) -> dict[int, int]:
    """Homology of the rows from their Stanley-Reisner complex D'.

    used is U, the union of the rows.  Degree e of D' is degree
    |U| - e - 3 of the rows (nerve lemma and Alexander duality; see the
    module docstring).  It holds for any rows, collapsed or not.  The
    degrees come out in increasing d, as on every other path, so the
    layers of D' are read from the top down.
    """
    n = used.bit_count()
    homology = _layer_ranks(_grow_dual(rows, used, cap), p)[2]
    return {n - 3 - e: h for e, h in reversed(homology.items()) if h}


def _boundary_columns(
    faces_lower: Sequence[int], faces_upper: Sequence[int]
) -> list[dict[int, int]]:
    """The boundary map as sparse columns {row index: +-1}, one per d-face."""
    row_of = {f: i for i, f in enumerate(faces_lower)}
    columns = []
    for f in faces_upper:
        col = {}
        sign = 1
        rest = f
        while rest:
            low = rest & -rest
            col[row_of[f ^ low]] = sign
            sign = -sign
            rest ^= low
        columns.append(col)
    return columns


def reduced_homology_ranks(
    layers: Sequence[list[int]], field: FieldSpec = RATIONALS
) -> ChainComplexRanks:
    """Exact reduced homology ranks of a downward-closed complex in layers.

    layers[k] lists the k-vertex faces as vertex masks, as
    taylor_faces_below returns them: [] is the Void complex, whose chain
    complex is zero, and [[0]] the complex of the empty face alone.
    """
    return ChainComplexRanks(*_layer_ranks(layers, field.p), field)


def _layer_ranks(
    layers: Sequence[list[int]], p: int | None
) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    """Face counts c_d, boundary ranks r_d and reduced homology h_d of layers.

    The d-faces are layers[d + 1], and h_d = c_d - r_d - r_(d+1) for
    every d from -1 to the top dimension, zeros included.
    """
    ranks = _boundary_ranks(layers, p)
    counts, homology = {}, {}
    for k, layer in enumerate(layers):
        c = counts[k - 1] = len(layer)
        homology[k - 1] = c - ranks.get(k - 1, 0) - ranks.get(k, 0)
    return counts, ranks, homology


def _boundary_ranks(layers: Sequence[list[int]], p: int | None) -> dict[int, int]:
    """Rank r_d of each boundary map, reduced for d = top, ..., 0.

    layers[k] lists the k-vertex faces, those of dimension k - 1.  The
    index of a face in its layer is its column in one map and its row
    in the next.  Clearing: a reduced column of the (d+1)-th map whose
    largest row is the d-face s is a cycle c*s + (earlier d-faces),
    c != 0, so the boundary of s depends on earlier columns of the d-th
    map, and s gets no column; r_d, the number of pivots, is unchanged
    over any field, and the order needs no other condition.
    """
    ranks: dict[int, int] = {}
    cleared: dict[int, dict[int, int]] = {}
    for k in range(len(layers) - 1, 0, -1):
        kept = [f for j, f in enumerate(layers[k]) if j not in cleared]
        cleared = _reduce_columns(_boundary_columns(layers[k - 1], kept), p)
        ranks[k - 1] = len(cleared)
    return ranks


# ---------------------------------------------------------------------------
# exact rank


def matrix_rank(M, field: FieldSpec = RATIONALS) -> int:
    """Exact rank of an integer matrix over the chosen field.

    M is a list of rows or a list of sparse columns {row index: entry}
    as built for boundary maps.  A list of rows is reduced by its rows,
    which has the same rank.
    """
    vectors = [
        v if isinstance(v, dict) else {j: int(x) for j, x in enumerate(v) if x}
        for v in M
    ]
    return len(_reduce_columns(vectors, field.p))


def _reduce_columns(columns: list[dict[int, int]], p: int | None) -> dict:
    """Pivots of sparse integer columns over QQ (p is None) or GF(p).

    The result maps each pivot's largest row index to its reduced
    column; its length is the rank.

    Each column is reduced against the stored pivots, keyed by their
    largest row index, until it is zero or its largest row is new.  A
    +-1 pivot, the common case on boundary maps, subtracts in place
    (Dumas-Saunders-Villard 2001).  Over QQ a non-unit pivot b and the
    column's entry a give b*col - a*pivot, divided by its content; over
    GF(p) every stored pivot is scaled to lead with 1.  The input
    columns are not modified.
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        col = {r: v % p for r, v in col.items() if v % p} if p else dict(col)
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                if p and col[low] != 1:
                    inv = pow(col[low], -1, p)
                    col = {r: v * inv % p for r, v in col.items()}
                pivots[low] = col
                break
            a, b = col[low], piv[low]
            if b == 1 or b == -1:
                f = a * b
                for r, v in piv.items():
                    x = col.get(r, 0) - f * v
                    if p:
                        x %= p
                    if x:
                        col[r] = x
                    else:
                        del col[r]
            else:
                out = {r: b * v for r, v in col.items()}
                for r, v in piv.items():
                    x = out.get(r, 0) - a * v
                    if x:
                        out[r] = x
                    else:
                        del out[r]
                g = gcd(*out.values())
                col = {r: v // g for r, v in out.items()} if g > 1 else out
    return pivots
