"""The lcm lattice of an ideal and lattice complementation."""

from __future__ import annotations

import dataclasses
from typing import Sequence

from .core import MonomialIdeal, SqfMonomial, mask_sort_key
from . import errors
from .errors import NotInLattice, SizeLimitExceeded

DEFAULT_LATTICE_CAP = 2**20


@dataclasses.dataclass(slots=True, eq=False, repr=False)
class LcmLattice:
    """All lcms of generator subsets, ordered by divisibility.

    ``elements`` is sorted by (degree, index tuple), the order of
    mask_sort_key, with bottom 1 first and the top lcm last; the search
    sorts a key that each element carries through the joins instead of
    calling mask_sort_key (see build_lattice).  ``witness`` maps each
    element's mask to one generator subset realizing it, and so answers
    membership.
    """

    ideal: MonomialIdeal
    elements: tuple[SqfMonomial, ...]
    witness: dict[int, tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.elements)

    def top(self) -> SqfMonomial:
        return self.elements[-1]


def build_lattice(I: MonomialIdeal, cap: int = DEFAULT_LATTICE_CAP) -> LcmLattice:
    """The lcm lattice of I, from the one mask search, _lattice_masks.

    Each element is found with its canonical sort key, the int
    ((degree << w | (2^w - 1 - rev)) << w) | mask, where rev is the mask
    with its bits reversed in w bits (w a whole number of bytes) and the
    mirror of a join m | g is rev(m) | rev(g).  At equal degree the
    larger mirror holds the lowest differing bit, so its mask sorts
    first, as under mask_sort_key, and one plain sort of the keys is the
    canonical order.  Only this wrapper makes SqfMonomials, for the
    lattice subcommand, the demos and the tests; betti_table walks the
    masks.

    Raises SizeLimitExceeded (with the elements found so far attached)
    as soon as the element count exceeds cap.
    """
    masks, witness = _lattice_masks(I.masks, cap)
    return LcmLattice(I, tuple(map(SqfMonomial, masks)), witness)


# each byte with its bits reversed, for _mirrors
_REVERSE_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _mirrors(masks: Sequence[int], top: int) -> tuple[int, list[int]]:
    """The width w of the mirrors of the masks below top, and their mirrors.

    The mirror of a mask is its bits reversed in w bits, bit k going to
    bit w - 1 - k, for w the fewest whole bytes, at least one, that hold
    top.  The lattice of an ideal and the product of its blocks' tables
    (betti._product) sort by the mirror in the width of the ideal's top.
    """
    nbytes = max(1, -(-top.bit_length() // 8))
    return 8 * nbytes, [
        int.from_bytes(m.to_bytes(nbytes, "little").translate(_REVERSE_BITS), "big")
        for m in masks
    ]


def _lattice_masks(
    gen_masks: Sequence[int], cap: int
) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    """Saturate {1} u gens under joins with single generators.

    Returns the element masks in the canonical order of mask_sort_key
    and the witness map, mask -> generator index tuple.

    The search runs level by level; an element found first from p by
    joining g_t gets the witness w(p) + (t,).  Each element joins only
    the generators after the last index of its witness, and the
    witnesses come out as W(m), the least (lexicographically) strictly
    increasing tuple of least length whose generators join to m.

    By induction on the level k, level k holds every element whose
    shortest tuple has length k, with witness W, in increasing order of
    W.  Take m on level k + 1, W(m) = (t_1, ..., t_k, t), and p the join
    of t_1, ..., t_k.  p lies on level k, since a shorter tuple for p
    plus t would make m shorter.  If W(p) != (t_1, ..., t_k), then
    W(p) is smaller, and sorting W(p) with t (which W(p) lacks, or p
    would be m) gives an increasing tuple for m that is smaller than
    W(m): W(p) agrees with (t_1, ..., t_k) up to an entry where it is
    smaller, and those entries are all below t, so they stay in front.
    So W(p) ends at t_k < t, and p joins g_t.  Level k + 1 is made by
    walking the pairs (p, t) in increasing order of W(p) + (t,), so a
    pair reaching m before (p, t) would give a smaller increasing tuple
    for m.  Hence m's witness is W(m), and level k + 1 comes out in
    increasing order of W.

    That is not the canonical order, so each element carries its sort
    key.  The mirror of a mask, its bits reversed in a fixed width w
    (_mirrors), is made once per generator, and the mirror of a join
    m | g is rev(m) | rev(g).  The key is the int
    ((degree << w | (2^w - 1 - rev)) << w) | mask.  At equal degree the
    highest bit where two mirrors differ is the lowest bit where the
    masks differ, so the mask holding it has the larger mirror and the
    smaller key, as its smaller index puts it first under mask_sort_key.
    The mirror is one to one, so the mask in the low w bits never
    decides, and is read back from there.  One plain sort of the keys is
    then the canonical order.

    Raises SizeLimitExceeded (with the elements found so far attached,
    as monomials in the canonical order) as soon as the element count
    exceeds cap.
    """
    top = 0
    for g in gen_masks:
        top |= g
    w, mirrors = _mirrors(gen_masks, top)
    ones = (1 << w) - 1
    gens = list(enumerate(gen_masks))
    witness: dict[int, tuple[int, ...]] = {0: ()}
    keys = [ones << w]
    # (element, its mirror, the first generator index after its witness)
    frontier = [(0, 0, 0)]
    while frontier:
        fresh = []
        for m, rm, start in frontier:
            wm = witness[m]
            for gi, g in gens[start:]:
                j = m | g
                if j not in witness:
                    witness[j] = wm + (gi,)
                    rj = rm | mirrors[gi]
                    keys.append(((j.bit_count() << w | (ones ^ rj)) << w) | j)
                    fresh.append((j, rj, gi + 1))
                    if len(witness) > cap:
                        raise SizeLimitExceeded(
                            f"lcm lattice exceeds cap {cap}",
                            partial=_in_order(witness),
                        )
        frontier = fresh
    keys.sort()
    return [k & ones for k in keys], witness


def _in_order(masks) -> list[SqfMonomial]:
    """The masks as monomials in the canonical order."""
    return [SqfMonomial(m) for m in sorted(masks, key=mask_sort_key)]


def in_lattice(I: MonomialIdeal, m: SqfMonomial) -> bool:
    """m is in LCM(I): the generators that divide m cover it.

    Their lcm divides m and is the largest element below it, so m is an
    lcm of generators exactly when that lcm is m itself.
    """
    covered = 0
    for g in I.masks:
        if not g & ~m.mask:
            covered |= g
    return covered == m.mask


def complementary(I: MonomialIdeal, m: SqfMonomial, m2: SqfMonomial) -> bool:
    """lcm(m, m2) = x_1...x_n and gcd(m, m2) not in I.

    The complement test without the lattice membership checks, for
    monomials already known to lie in LCM(I), decided on I.masks: the gcd
    is outside I when every generator has a variable that it lacks.
    """
    if m.mask | m2.mask != I.vars.full_mask:
        return False
    outside = ~(m.mask & m2.mask)
    for g in I.masks:
        if not g & outside:
            return False
    return True


def is_lattice_complement(I: MonomialIdeal, m: SqfMonomial, m2: SqfMonomial) -> bool:
    """lcm(m, m2) = x_1...x_n and gcd(m, m2) not in I.

    Both monomials must be lattice elements, which is decided without
    building the lattice.  Membership of the gcd in I is divisibility
    against the generators, per the definition.
    """
    for x in (m, m2):
        if not in_lattice(I, x):
            raise NotInLattice(f"{x!r} is not in LCM(I)")
    return complementary(I, m, m2)


def enumerate_complements(I: MonomialIdeal, m: SqfMonomial) -> list[SqfMonomial]:
    """All lattice complements of m, in (degree, index tuple) order.

    A complement m2 holds every variable c = U minus m that m lacks, so
    it is c | T with T = gcd(m, m2), a set of m's variables that holds
    no generator; and every such c | T in LCM(I) is a complement.  The
    sets T are searched depth first over m's variables, and a T that
    holds a generator is cut with all its supersets.  No lattice is
    built.  Raises SizeLimitExceeded, with the complements found so far
    attached, once more than DEFAULT_LATTICE_CAP sets T are visited.
    """
    if not in_lattice(I, m):
        raise NotInLattice(f"{m!r} is not in LCM(I)")
    c = I.vars.full_mask & ~m.mask
    below = [g for g in I.masks if not g & ~m.mask]
    bits = [1 << k for k in m.indices()]
    found: list[int] = []
    spend = errors.budget(
        DEFAULT_LATTICE_CAP, "complement search", lambda: _in_order(found)
    )
    stack = [(0, 0)]  # (T, the position in bits of its next variable)
    while stack:
        t, start = stack.pop()
        spend()
        if in_lattice(I, SqfMonomial(c | t)):
            found.append(c | t)
        for pos in range(start, len(bits)):
            u = t | bits[pos]
            if all(g & ~u for g in below):
                stack.append((u, pos + 1))
    return _in_order(found)


def hasse_pairs(lattice: LcmLattice) -> list[tuple[int, int]]:
    """Cover relations as (lower, upper) element indices, by upper first.

    y covers x exactly when y is a minimal element of {x | g : g a
    generator not dividing x}: every element above x holds such a join,
    and each join is an element above x.  Provided for inspection only,
    nothing in the certification pipeline needs it.
    """
    position = {m.mask: k for k, m in enumerate(lattice.elements)}
    pairs = []
    for lo, x in enumerate(lattice.elements):
        joins = {x.mask | g for g in lattice.ideal.masks if g & ~x.mask}
        for y in joins:
            if not any(z != y and z | y == y for z in joins):
                pairs.append((lo, position[y]))
    pairs.sort(key=lambda pair: (pair[1], pair[0]))
    return pairs
