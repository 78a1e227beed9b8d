"""Simplicial bouquets and strongly disjoint sets of them.

A bouquet is a subcollection of facets with a nonempty common
intersection (its root) in which every facet keeps a free vertex.  A
strongly disjoint set of bouquets has pairwise disjoint vertex sets and
admits one representative facet per bouquet, pairwise 3-disjoint in the
ambient complex.  When such a family also spans all vertices and every
outside facet interacts with the family only by swallowing whole
non-root wings, its facets line up into well ordered covers, one per
permutation of the bouquets.
"""

from __future__ import annotations

import math
import dataclasses
from typing import Iterable, Iterator, Sequence

from .analysis import _table_for
from .betti import BettiTable, t_max
from .core import (
    MonomialIdeal,
    SimplicialComplex,
    SqfMonomial,
    facet_ideal,
    format_monomial,
)
from .covers import DEFAULT_SEARCH_BUDGET
from . import errors
from .errors import InvalidBouquetSet, InvalidPartition, SameFacet
from .homology import RATIONALS, FieldSpec
from .lattice import complementary

# a candidate bouquet: (facets, root, union, twice), masks over the vertices
_Candidate = tuple[tuple[int, ...], int, int, int]


@dataclasses.dataclass(slots=True, repr=False, unsafe_hash=True)
class Bouquet:
    """Facets sharing a nonempty root, each with a free vertex inside.

    free_vertex_witness is aligned with facets and records one vertex
    per facet that no other facet of the bouquet touches.  vertex_mask
    is the union of the facet supports (the monomial of V(B)).
    """

    facets: tuple[int, ...]
    root: SqfMonomial = dataclasses.field(compare=False)
    free_vertex_witness: tuple[int, ...] = dataclasses.field(compare=False)
    vertex_mask: int = dataclasses.field(compare=False)

    def __len__(self) -> int:
        return len(self.facets)

    def __repr__(self) -> str:
        return f"Bouquet(facets={list(self.facets)})"


@dataclasses.dataclass(slots=True, eq=False, repr=False)
class BouquetCheck:
    """Outcome of the bouquet decision: truthy iff accepted."""

    ok: bool
    bouquet: Bouquet | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return f"BouquetCheck(ok={self.ok}" + (
            ")" if self.ok else f", reason={self.reason!r})"
        )


@dataclasses.dataclass(slots=True, eq=False, repr=False)
class BouquetSet:
    """A strongly disjoint family with its chosen representatives.

    spans_delta and outside_condition_ok record the two containment
    clauses; both must hold before the family yields well ordered
    covers.
    """

    complex: SimplicialComplex
    bouquets: tuple[Bouquet, ...]
    representatives: tuple[int, ...]
    spans_delta: bool
    outside_condition_ok: bool

    def __len__(self) -> int:
        return len(self.bouquets)

    def __repr__(self) -> str:
        groups = ", ".join(repr(list(b.facets)) for b in self.bouquets)
        return f"BouquetSet({groups}; reps={list(self.representatives)})"


def is_bouquet(delta: SimplicialComplex, facets: Iterable) -> BouquetCheck:
    """Decide whether the given facets form a bouquet, with witnesses."""
    indices = tuple(delta.facet_index(f) for f in facets)
    if not indices:
        return BouquetCheck(False, reason="a bouquet needs at least one facet")
    if len(set(indices)) != len(indices):
        return BouquetCheck(False, reason="repeated facet")
    masks = [f.mask for f in delta.facets]
    candidate = _candidate(masks, indices)
    _, root, _, twice = candidate
    if not root:
        return BouquetCheck(False, reason="facets have empty common intersection")
    for k in indices:
        if not masks[k] & ~twice:
            name = format_monomial(delta.facets[k], delta.vars)
            return BouquetCheck(
                False, reason=f"facet {name} has no free vertex in the bouquet"
            )
    return BouquetCheck(True, bouquet=_bouquet(masks, candidate))


def _candidate(masks: Sequence[int], subset: Sequence[int]) -> _Candidate:
    """The record (facets, root, union, twice) of the given facets.

    twice holds the vertices of two or more of them, so facet k's free
    vertices are masks[k] & ~twice, as in core.private_bits.
    """
    common, once, twice = -1, 0, 0
    for k in subset:
        common &= masks[k]
        twice |= once & masks[k]
        once |= masks[k]
    return tuple(subset), common, once, twice


def _bouquet(masks: Sequence[int], candidate: _Candidate) -> Bouquet:
    """The Bouquet of a record, each facet witnessed by its lowest free vertex."""
    facets, root, union, twice = candidate
    witnesses = []
    for k in facets:
        free = masks[k] & ~twice
        witnesses.append((free & -free).bit_length() - 1)
    return Bouquet(facets, SqfMonomial(root), tuple(witnesses), union)


def facet_distance(delta: SimplicialComplex, f, g) -> int | float:
    """Edge count of a shortest path in the facet intersection graph.

    Adjacency is nonempty intersection; distinct facets in different
    components are at distance infinity.
    """
    i = delta.facet_index(f)
    j = delta.facet_index(g)
    if i == j:
        raise SameFacet("distance is defined for distinct facets")
    masks = [x.mask for x in delta.facets]
    dist = {i: 0}
    frontier = [i]
    while frontier:
        nxt = []
        for u in frontier:
            for v in range(len(masks)):
                if v not in dist and masks[u] & masks[v]:
                    dist[v] = dist[u] + 1
                    if v == j:
                        return dist[v]
                    nxt.append(v)
        frontier = nxt
    return math.inf


def _near(delta: SimplicialComplex) -> list[int]:
    """Bit j of near[i]: some facet meets facets i and j (distance <= 2).

    Facets r and c are 3-disjoint iff near[r] lacks bit c; bit r is set.
    Built on the first call and kept on the complex, which later calls
    return as it is.
    """
    if delta._near is not None:
        return delta._near
    masks = [f.mask for f in delta.facets]
    near = []
    for f in masks:
        around = 0  # the vertices of the facets meeting f
        for g in masks:
            if f & g:
                around |= g
        near.append(sum(1 << j for j, g in enumerate(masks) if g & around))
    delta._near = near
    return near


def is_strongly_disjoint(
    delta: SimplicialComplex,
    bouquets: Sequence[Bouquet],
    representatives: Sequence[int],
) -> tuple[bool, list[str]]:
    """Vertex disjointness plus 3-disjointness of the representatives.

    Returns (verdict, reasons); reasons list every violated clause.
    """
    reasons = []
    for i in range(len(bouquets)):
        for j in range(i + 1, len(bouquets)):
            if bouquets[i].vertex_mask & bouquets[j].vertex_mask:
                reasons.append(f"bouquets {i} and {j} share a vertex")
    if len(representatives) != len(bouquets):
        reasons.append("need exactly one representative per bouquet")
        return False, reasons
    reps = []
    for k, r in enumerate(representatives):
        r = delta.facet_index(r)
        reps.append(r)
        if r not in bouquets[k].facets:
            reasons.append(f"representative of bouquet {k} is not one of its facets")
    near = _near(delta)
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if near[reps[i]] >> reps[j] & 1:
                reasons.append(
                    f"representatives of bouquets {i} and {j} are not 3-disjoint"
                )
    return not reasons, reasons


def spans_complex(delta: SimplicialComplex, bouquets: Sequence[Bouquet]) -> bool:
    """V(family) covers every vertex of the complex."""
    covered = 0
    for b in bouquets:
        covered |= b.vertex_mask
    return covered == delta.vars.full_mask


def outside_condition(
    delta: SimplicialComplex, bouquets: Sequence[Bouquet]
) -> bool:
    """Outside facets may meet a bouquet facet's non-root wing only whole.

    For F outside the family and G in bouquet B: whenever F touches
    G minus Root(B), all of G minus Root(B) must lie inside F.
    """
    family = set()
    wings = []
    for b in bouquets:
        family.update(b.facets)
        wings.extend(delta.facets[gi].mask & ~b.root.mask for gi in b.facets)
    for fi, facet in enumerate(delta.facets):
        if fi in family:
            continue
        fmask = facet.mask
        for wing in wings:
            if fmask & wing and wing & ~fmask:
                return False
    return True


def _representative_systems(
    bouquets: Sequence[Bouquet], near: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Pairwise 3-disjoint representative choices, in lexicographic order."""
    return _extend_reps(bouquets, near, (), 0)


def _extend_reps(
    bouquets: Sequence[Bouquet],
    near: Sequence[int],
    chosen: tuple[int, ...],
    blocked: int,
) -> Iterator[tuple[int, ...]]:
    # near is symmetric: blocked holds every facet too close to a chosen one
    if len(chosen) == len(bouquets):
        yield chosen
        return
    for r in sorted(bouquets[len(chosen)].facets):
        if not blocked >> r & 1:
            yield from _extend_reps(bouquets, near, chosen + (r,), blocked | near[r])


def representative_systems(
    delta: SimplicialComplex, bouquets: Sequence[Bouquet]
) -> list[tuple[int, ...]]:
    """All pairwise 3-disjoint representative choices, lexicographic."""
    return list(_representative_systems(bouquets, _near(delta)))


def build_bouquet_set(
    delta: SimplicialComplex,
    groups: Sequence[Iterable],
    representatives: Sequence | None = None,
) -> BouquetSet:
    """Assemble and validate a bouquet family from facet groups.

    Each group must be a bouquet and the family must be strongly
    disjoint; representatives default to the lexicographically least
    pairwise 3-disjoint system.  The two containment clauses (spanning,
    outside condition) are recorded as flags, not enforced.
    """
    bouquets = []
    for group in groups:
        check = is_bouquet(delta, group)
        if not check.ok:
            raise InvalidBouquetSet(check.reason or "not a bouquet")
        bouquets.append(check.bouquet)
    if not bouquets:
        raise InvalidBouquetSet("empty bouquet family")
    for i in range(len(bouquets)):
        for j in range(i + 1, len(bouquets)):
            if bouquets[i].vertex_mask & bouquets[j].vertex_mask:
                raise InvalidBouquetSet(f"bouquets {i} and {j} share a vertex")
    if representatives is None:
        reps = next(_representative_systems(bouquets, _near(delta)), None)
        if reps is None:
            raise InvalidBouquetSet("no pairwise 3-disjoint representative system")
    else:
        ok, reasons = is_strongly_disjoint(delta, bouquets, list(representatives))
        if not ok:
            raise InvalidBouquetSet("; ".join(reasons))
        reps = tuple(delta.facet_index(r) for r in representatives)
    return BouquetSet(
        delta,
        tuple(bouquets),
        reps,
        spans_complex(delta, bouquets),
        outside_condition(delta, bouquets),
    )


def _candidate_bouquets(
    masks: Sequence[int], full: int, spend
) -> dict[int, list[_Candidate]]:
    """Every bouquet on the facets masks, filed under its lowest vertex.

    The DFS adds facets in increasing index and spends one budget unit
    per bouquet grown.  A child only shrinks the root and only adds to
    twice, so a branch is cut, with its whole subtree, at the first facet
    that empties the root or leaves some facet without a free vertex
    (masks[k] & ~twice == 0): no superset can be a bouquet again.  The
    cut drops no bouquet, so each list keeps the DFS preorder.
    """
    by_low: dict[int, list[_Candidate]] = {}
    _grow_bouquet(masks, spend, by_low, (), full, 0, 0, 0)
    return by_low


def _grow_bouquet(
    masks: Sequence[int],
    spend,
    by_low: dict[int, list[_Candidate]],
    subset: tuple[int, ...],
    common: int,
    once: int,
    twice: int,
    start: int,
) -> None:
    spend()
    if subset:
        by_low.setdefault(once & -once, []).append((subset, common, once, twice))
    for nxt in range(start, len(masks)):
        m = masks[nxt]
        c = common & m
        if not c:
            continue
        more = twice | (once & m)
        if not m & ~more:
            continue
        # the old facets lose free vertices only where twice grew
        if more != twice and not all(masks[k] & ~more for k in subset):
            continue
        _grow_bouquet(masks, spend, by_low, subset + (nxt,), c, once | m, more, nxt + 1)


def _extend_family(
    by_low: dict[int, list[_Candidate]],
    near: Sequence[int],
    full: int,
    spend,
    emit,
    chosen: list[_Candidate],
    covered: int,
    systems: set[int],
) -> bool:
    """Cover the vertices with pairwise disjoint candidate bouquets.

    Branches on which candidate covers the lowest uncovered vertex v, so
    each family is reached exactly once.  Lowest-vertex index: every
    vertex below v is covered, so a candidate disjoint from the cover
    that holds v has v as its lowest vertex.  by_low[v] therefore holds
    every candidate the branch can take, in the order of the whole
    candidate list, and the families come out in the same order.

    Representative cut: systems holds one blocked mask per pairwise
    3-disjoint choice of representatives for the bouquets chosen so
    far, the facets within distance 2 of a chosen one.  A candidate is
    skipped when it leaves no choice.  3-disjointness is a pairwise,
    symmetric condition, so whether a choice exists does not depend on
    the order of the bouquets, and a choice for a family restricts to
    one for each of its subfamilies: no skipped branch ends in a family
    that emit would keep.

    Each state spends one unit, and each candidate disjoint from the
    cover spends len(systems) * len(facets) more, one per test of a
    representative against a blocked mask in building after.
    """
    spend()
    if covered == full:
        return emit(tuple(chosen))
    free = ~covered & full
    for candidate in by_low.get(free & -free, ()):
        facets, _, union, _ = candidate
        if union & covered:
            continue
        spend(len(systems) * len(facets))
        # near is symmetric: blocked holds every facet too close to a chosen one
        after = set()
        for blocked in systems:
            for r in facets:
                if not blocked >> r & 1:
                    after.add(blocked | near[r])
        if not after:
            continue
        chosen.append(candidate)
        stop = _extend_family(
            by_low, near, full, spend, emit, chosen, covered | union, after
        )
        chosen.pop()
        if stop:
            return True
    return False


def contains_strongly_disjoint_set(
    delta: SimplicialComplex,
    first_only: bool = False,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> list[BouquetSet]:
    """Search for spanning strongly disjoint bouquet families.

    The search is exhaustive at every size: an empty answer proves that
    no family exists.  Every returned family spans the vertices, passes
    the outside condition, and carries its lexicographically least
    representative system.  first_only stops at the first family the
    search reaches, which is one of the full answer's but not always its
    first.

    budget bounds the work of the cut search, in units: one per bouquet
    grown (_candidate_bouquets), one per state of the family search, and
    one per test of a representative against a blocked mask
    (_extend_family).  A cut branch spends nothing past the cut.
    """
    results: list[BouquetSet] = []
    near = _near(delta)
    masks = [f.mask for f in delta.facets]
    spend = errors.budget(budget, "bouquet family search", lambda: list(results))
    by_low = _candidate_bouquets(masks, delta.vars.full_mask, spend)

    def emit(family: tuple[_Candidate, ...]) -> bool:
        bouquets = tuple(_bouquet(masks, c) for c in sorted(family))
        if not outside_condition(delta, bouquets):
            return False
        reps = next(_representative_systems(bouquets, near), None)
        if reps is None:
            return False
        results.append(BouquetSet(delta, bouquets, reps, True, True))
        return first_only

    _extend_family(by_low, near, delta.vars.full_mask, spend, emit, [], 0, {0})
    results.sort(key=lambda s: (len(s.bouquets), [b.facets for b in s.bouquets]))
    return results


def _require_theorem(bset: BouquetSet) -> None:
    """Raise InvalidBouquetSet unless the theorem covers the family."""
    if not bset.spans_delta:
        raise InvalidBouquetSet("family does not span the vertex set")
    if not bset.outside_condition_ok:
        raise InvalidBouquetSet("family fails the outside facet condition")


def bouquet_orderings(
    bset: BouquetSet, permutation: Sequence[int] | None = None
) -> tuple[int, ...]:
    """Concatenate bouquet blocks, each one's representative last.

    permutation reorders the bouquets (default: stored order).  Blocks
    list non-representative facets by ascending index, then the
    representative; the result is a sequence of facet indices forming a
    well ordered cover of the facet ideal.
    """
    _require_theorem(bset)
    d = len(bset.bouquets)
    if permutation is None:
        permutation = tuple(range(d))
    else:
        permutation = tuple(int(k) for k in permutation)
        if sorted(permutation) != list(range(d)):
            raise InvalidBouquetSet(
                f"permutation must rearrange 0..{d - 1}, got {list(permutation)}"
            )
    seq: list[int] = []
    for k in permutation:
        b = bset.bouquets[k]
        rep = bset.representatives[k]
        seq.extend(i for i in sorted(b.facets) if i != rep)
        seq.append(rep)
    return tuple(seq)


@dataclasses.dataclass(slots=True, eq=False, repr=False)
class BouquetSubadditivity:
    """Certificate that a bouquet partition bounds t_b by t_b' + t_b''."""

    ideal: MonomialIdeal
    field: FieldSpec
    b_left: int
    b_right: int
    m_left: SqfMonomial
    m_right: SqfMonomial
    complement_ok: bool
    beta_left: int
    beta_right: int
    t_left: int
    t_right: int
    t_total: int
    holds: bool

    @property
    def b_total(self) -> int:
        return self.b_left + self.b_right

    def __repr__(self) -> str:
        return (
            f"BouquetSubadditivity(t_{self.b_total}={self.t_total} <= "
            f"t_{self.b_left}+t_{self.b_right}={self.t_left}+{self.t_right})"
        )


def bouquet_subadditivity(
    bset: BouquetSet,
    left: Iterable[int],
    field: FieldSpec = RATIONALS,
    table: BettiTable | None = None,
) -> BouquetSubadditivity:
    """Certify t_b <= t_b' + t_b'' from a partition of the family.

    left selects bouquet positions for the first part; the rest form the
    second.  The two vertex-product monomials are lattice complements
    with nonvanishing Betti numbers in homological degrees b' and b'',
    all of which is theorem-backed and therefore asserted.  A family
    the theorem does not cover, one that does not span or fails the
    outside condition, raises InvalidBouquetSet.  Every number is read
    from table; one over another field or ideal raises SqfBettiError.
    """
    _require_theorem(bset)
    d = len(bset.bouquets)
    left_set = set(int(i) for i in left)
    if any(not 0 <= i < d for i in left_set):
        raise InvalidPartition(f"bouquet positions must lie in 0..{d - 1}")
    if not left_set or len(left_set) == d:
        raise InvalidPartition("both parts of the partition must be nonempty")
    right_set = set(range(d)) - left_set

    I = facet_ideal(bset.complex)

    def part(indices: set[int]) -> tuple[int, SqfMonomial]:
        count = 0
        vmask = 0
        for i in sorted(indices):
            count += len(bset.bouquets[i].facets)
            vmask |= bset.bouquets[i].vertex_mask
        return count, SqfMonomial(vmask)

    b_left, m_left = part(left_set)
    b_right, m_right = part(right_set)
    assert m_left.gcd(m_right).is_one, "partition parts share a vertex"
    complement_ok = complementary(I, m_left, m_right)
    assert complement_ok, "partition monomials failed lattice complementation"

    table = _table_for(I, field, table)
    beta_left = table.multigraded.get((b_left, m_left), 0)
    beta_right = table.multigraded.get((b_right, m_right), 0)
    assert beta_left >= 1 and beta_right >= 1, "partition Betti numbers vanished"
    t_left = t_max(table, b_left)
    t_right = t_max(table, b_right)
    t_total = t_max(table, b_left + b_right)
    holds = t_total <= t_left + t_right
    assert holds, "subadditivity failed on a certified bouquet partition"
    return BouquetSubadditivity(
        I,
        field,
        b_left,
        b_right,
        m_left,
        m_right,
        complement_ok,
        beta_left,
        beta_right,
        t_left,
        t_right,
        t_total,
        holds,
    )
