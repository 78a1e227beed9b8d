"""Taylor subcomplexes below a multidegree and exact reduced homology.

The chain complexes here are small but their ranks must be exact.  Each
boundary map is built as sparse columns of +-1 entries and reduced by
one elimination routine in Python integers, with unit pivots
subtracting in place: exact over the rationals, and modulo p over a
prime field.  The maps are reduced from the top dimension down with
clearing (Chen-Kerber, "Persistent homology computation with a twist",
2011), so columns already known to be dependent are never built.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

import numpy as np

from .core import MonomialIdeal, SqfMonomial
from .errors import ParseError, SizeLimitExceeded, SqfBettiError

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
    def kind(self) -> str:
        return "rationals" if self.p is None else "prime"

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


class FaceSet:
    """Faces of a subcomplex of the Taylor complex, as generator masks.

    A face is a subset of generator indices, stored as a bit mask.  The
    empty iterable builds the distinguished Void complex (no faces at
    all), which is not the same thing as the complex {empty face}.
    """

    __slots__ = ("faces",)

    def __init__(self, faces: Iterable[int]):
        self.faces = frozenset(faces)

    @classmethod
    def void(cls) -> "FaceSet":
        return cls(())

    @property
    def is_void(self) -> bool:
        return not self.faces

    def __len__(self) -> int:
        return len(self.faces)

    def __eq__(self, other) -> bool:
        return isinstance(other, FaceSet) and self.faces == other.faces

    def __hash__(self) -> int:
        return hash(self.faces)

    def __repr__(self) -> str:
        if self.is_void:
            return "FaceSet.void()"
        return f"FaceSet({len(self.faces)} faces, dim {self.dimension()})"

    def dimension(self) -> int:
        """Max face dimension; -1 for {empty face}; Void raises SqfBettiError."""
        if self.is_void:
            raise SqfBettiError("the Void complex has no dimension")
        return max(f.bit_count() for f in self.faces) - 1


class ChainComplexRanks:
    """Face counts, boundary ranks, and reduced homology per dimension.

    h_i = c_i - r_i - r_{i+1}, with c_{-1} = 1 whenever the face set is
    nonempty; the Void complex has a zero chain complex throughout.
    """

    __slots__ = ("face_counts", "boundary_ranks", "homology_ranks", "field")

    def __init__(
        self,
        face_counts: dict[int, int],
        boundary_ranks: dict[int, int],
        homology_ranks: dict[int, int],
        field: FieldSpec,
    ):
        self.face_counts = face_counts
        self.boundary_ranks = boundary_ranks
        self.homology_ranks = homology_ranks
        self.field = field

    def c(self, d: int) -> int:
        return self.face_counts.get(d, 0)

    def r(self, d: int) -> int:
        return self.boundary_ranks.get(d, 0)

    def h(self, d: int) -> int:
        return self.homology_ranks.get(d, 0)

    def __repr__(self) -> str:
        hs = {d: v for d, v in sorted(self.homology_ranks.items()) if v}
        return f"ChainComplexRanks(h={hs}, field={self.field.label})"


def taylor_faces_below(
    I: MonomialIdeal, m: SqfMonomial, cap: int = DEFAULT_FACE_CAP
) -> FaceSet:
    """Subsets of generators whose lcm strictly divides m.

    Only generators dividing m can appear (anything else already fails
    divisibility), and any subset whose lcm reaches m exactly is pruned
    along with all of its supersets.  m = 1 gives Void.
    """
    if m.is_one:
        return FaceSet.void()
    target = m.mask
    div = [i for i, g in enumerate(I.gens) if g.divides(m)]
    faces = [0]
    layer = [(0, -1, 0)]  # (face mask, last position in div, lcm mask)
    while layer:
        grown = []
        for fmask, last, lc in layer:
            for pos in range(last + 1, len(div)):
                gi = div[pos]
                lc2 = lc | I.gens[gi].mask
                if lc2 == target:
                    continue  # supersets can only stay at m
                nf = fmask | 1 << gi
                faces.append(nf)
                if len(faces) > cap:
                    raise SizeLimitExceeded(
                        f"face count exceeds cap {cap}", partial=None
                    )
                grown.append((nf, pos, lc2))
        layer = grown
    return FaceSet(faces)


def boundary_matrix(
    faces_lower: Sequence[int], faces_upper: Sequence[int]
) -> np.ndarray:
    """Signed incidence matrix from d-faces (columns) to (d-1)-faces (rows).

    Vertices inside a face are taken in ascending generator index; the
    k-th deletion gets sign (-1)^k.  The dense form of
    :func:`_boundary_columns`, kept for inspection and tests.
    """
    M = np.zeros((len(faces_lower), len(faces_upper)), dtype=np.int64)
    for c, col in enumerate(_boundary_columns(faces_lower, faces_upper)):
        for r, sign in col.items():
            M[r, c] = sign
    return M


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


def faces_by_dimension(faces: FaceSet) -> dict[int, list[int]]:
    """Faces grouped by dimension, each group sorted by mask.

    Ranks do not depend on the order; the mask order fixes row and
    column indices, the same for the d-faces in both maps they meet.
    """
    groups: dict[int, list[int]] = {}
    for f in faces.faces:
        groups.setdefault(f.bit_count() - 1, []).append(f)
    for g in groups.values():
        g.sort()
    return groups


def reduced_homology_ranks(
    faces: FaceSet, field: FieldSpec = RATIONALS
) -> ChainComplexRanks:
    """Exact reduced homology ranks of a downward-closed face set.

    Boundary maps are reduced for d = top, ..., 0.  Clearing: a reduced
    column of the (d+1)-th map whose largest row is the d-face s is a
    cycle c*s + (earlier d-faces), c != 0, so the boundary of s depends
    on earlier columns of the d-th map, and s gets no column; r_d, the
    number of pivots, is unchanged over any field.  It needs the rows of
    the (d+1)-th map in the column order of the d-th: both in mask order.
    """
    if faces.is_void:
        return ChainComplexRanks({}, {}, {}, field)
    groups = faces_by_dimension(faces)
    face_counts = {d: len(g) for d, g in groups.items()}
    boundary_ranks: dict[int, int] = {}
    top = max(groups)
    cleared: dict[int, dict[int, int]] = {}
    for d in range(top, -1, -1):
        kept = [f for j, f in enumerate(groups[d]) if j not in cleared]
        cleared = _reduce_columns(_boundary_columns(groups[d - 1], kept), field.p)
        boundary_ranks[d] = len(cleared)
    homology = {}
    for d in range(-1, top + 1):
        homology[d] = (
            face_counts.get(d, 0)
            - boundary_ranks.get(d, 0)
            - boundary_ranks.get(d + 1, 0)
        )
    return ChainComplexRanks(face_counts, boundary_ranks, homology, field)


# ---------------------------------------------------------------------------
# exact rank


def matrix_rank(M, field: FieldSpec = RATIONALS) -> int:
    """Exact rank of an integer matrix over the chosen field.

    M is a 2-d array, a list of rows, or a list of sparse columns
    {row index: entry} as built for boundary maps.  A dense matrix is
    reduced by its rows, which has the same rank.
    """
    if isinstance(M, np.ndarray):
        M = M.tolist()
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
