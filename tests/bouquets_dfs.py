"""The bouquet family search without cuts, a test oracle for the cut search.

``contains_strongly_disjoint_set`` prunes its two DFS and indexes its
candidates.  This is the search it replaced: it lists every facet subset
with a nonempty root that keeps a free vertex in each facet, scans the
whole list at each state, and builds and decides each family only at
the leaf: its bouquets from ``core.private_bits``, then the outside
condition, recomputing the wings per outside facet, then the
representative systems.  It spends no budget and answers as the cut
search does.
"""

from __future__ import annotations

from sqfbetti.bouquets import Bouquet, BouquetSet, _near, _representative_systems
from sqfbetti.core import SimplicialComplex, SqfMonomial, private_bits


def bouquet(delta: SimplicialComplex, subset: tuple[int, ...]) -> Bouquet:
    """The bouquet on the given facets, each witnessed by its lowest free vertex."""
    masks = [delta.facets[k].mask for k in subset]
    root, union = -1, 0
    for m in masks:
        root &= m
        union |= m
    witnesses = tuple((free & -free).bit_length() - 1 for free in private_bits(masks))
    assert root and min(witnesses) >= 0, "search emitted a non-bouquet"
    return Bouquet(subset, SqfMonomial(root), witnesses, union)


def outside_condition(delta: SimplicialComplex, bouquets) -> bool:
    family = set()
    for b in bouquets:
        family.update(b.facets)
    for fi, facet in enumerate(delta.facets):
        if fi in family:
            continue
        fmask = facet.mask
        for b in bouquets:
            for gi in b.facets:
                wing = delta.facets[gi].mask & ~b.root.mask
                if fmask & wing and wing | fmask != fmask:
                    return False
    return True


def candidate_bouquets(delta: SimplicialComplex) -> list[tuple[tuple[int, ...], int]]:
    """(facets, union) of every bouquet, in DFS preorder."""
    masks = [f.mask for f in delta.facets]
    found: list[tuple[tuple[int, ...], int]] = []
    _grow_bouquet(masks, found, (), delta.vars.full_mask, 0, 0)
    return found


def _grow_bouquet(masks, found, subset, common, union, start) -> None:
    if subset and all(private_bits([masks[k] for k in subset])):
        found.append((subset, union))
    for nxt in range(start, len(masks)):
        c = common & masks[nxt]
        if c:
            _grow_bouquet(masks, found, subset + (nxt,), c, union | masks[nxt], nxt + 1)


def _extend_family(candidates, full, emit, chosen, covered) -> bool:
    if covered == full:
        return emit(tuple(chosen))
    v = (~covered & full) & -(~covered & full)
    for subset, vmask in candidates:
        if vmask & v and not vmask & covered:
            chosen.append(subset)
            stop = _extend_family(candidates, full, emit, chosen, covered | vmask)
            chosen.pop()
            if stop:
                return True
    return False


def emitted(delta: SimplicialComplex, first_only: bool = False) -> list[BouquetSet]:
    """The families the search accepts, in the order it reaches them."""
    near = _near(delta)
    results: list[BouquetSet] = []

    def emit(family: tuple[tuple[int, ...], ...]) -> bool:
        bouquets = [bouquet(delta, subset) for subset in sorted(family)]
        if not outside_condition(delta, bouquets):
            return False
        reps = next(_representative_systems(bouquets, near), None)
        if reps is None:
            return False
        results.append(BouquetSet(delta, tuple(bouquets), reps, True, True))
        return first_only

    _extend_family(candidate_bouquets(delta), delta.vars.full_mask, emit, [], 0)
    return results


def strongly_disjoint_sets(
    delta: SimplicialComplex, first_only: bool = False
) -> list[BouquetSet]:
    """What contains_strongly_disjoint_set returns."""
    results = emitted(delta, first_only)
    results.sort(key=lambda s: (len(s.bouquets), [b.facets for b in s.bouquets]))
    return results
