"""Output checks that do not depend on the package under test.

Everything here works from the benchmark's own generator lists, as bit
masks over the sorted variable names, and never calls into the package.
The central check is the Moebius identity of the lcm lattice
(Gasharov-Peeva-Welker 1999): for every element m of LCM(I)

    sum_i (-1)^i beta_(i,m)(S/I) = mu(1, m),

with the lattice and mu built here from the generators, and
beta_(i,m) = 0 for every m outside the lattice.  Each check returns
None when the output passes and a one-line reason when it does not.
"""

from __future__ import annotations

from typing import Iterable


class Frame:
    """An ideal as the oracle sees it: generator masks over sorted names."""

    def __init__(self, gens: Iterable[str]):
        gens = [tuple(g.split()) for g in gens]
        self.names = sorted({v for g in gens for v in g})
        self.index = {v: k for k, v in enumerate(self.names)}
        self.gens = [self.mask(g) for g in gens]
        self.full = (1 << len(self.names)) - 1

    def mask(self, names: Iterable[str]) -> int:
        m = 0
        for v in names:
            m |= 1 << self.index[v]
        return m

    def label(self, mask: int) -> str:
        """Canonical text of a monomial, for summaries and messages."""
        return " ".join(v for k, v in enumerate(self.names) if mask >> k & 1) or "1"

    def translator(self, names: Iterable[str]):
        """Map masks over another variable order (given by name) to ours."""
        bits = [1 << self.index[v] for v in names]

        def translate(mask: int) -> int:
            out = 0
            k = 0
            while mask:
                if mask & 1:
                    out |= bits[k]
                mask >>= 1
                k += 1
            return out

        return translate

    def contains(self, m: int) -> bool:
        return any(g & ~m == 0 for g in self.gens)

    def is_complement(self, m: int, m2: int) -> bool:
        return m | m2 == self.full and not self.contains(m & m2)


def lcm_closure(gens: list[int]) -> list[int]:
    """All lcms of generator subsets, the empty one included."""
    seen = {0}
    frontier = [0]
    while frontier:
        fresh = []
        for m in frontier:
            for g in gens:
                j = m | g
                if j not in seen:
                    seen.add(j)
                    fresh.append(j)
        frontier = fresh
    return sorted(seen, key=lambda m: (m.bit_count(), m))


def mobius_from_bottom(elements: list[int]) -> dict[int, int]:
    """mu(1, m) for every element, by mu(1,m) = -sum_{z < m} mu(1,z)."""
    mu: dict[int, int] = {}
    done: list[int] = []
    for m in elements:
        mu[m] = 1 if m == 0 else -sum(mu[z] for z in done if z & ~m == 0)
        done.append(m)
    return mu


def check_mobius(frame: Frame, table: dict[tuple[int, int], int]) -> str | None:
    """Alternating sums of a multigraded table against the Moebius function."""
    elements = lcm_closure(frame.gens)
    lattice = set(elements)
    if table.get((0, 0)) != 1:
        return "beta_(0,1) is not 1"
    euler = dict.fromkeys(elements, 0)
    for (i, m), rank in table.items():
        if m not in lattice:
            return f"beta_({i},{frame.label(m)}) outside the lcm lattice"
        if rank <= 0:
            return f"non-positive entry beta_({i},{frame.label(m)})={rank}"
        euler[m] += -rank if i % 2 else rank
    mu = mobius_from_bottom(elements)
    for m in elements:
        if euler[m] != mu[m]:
            return (
                f"Euler characteristic {euler[m]} != mu(1,m) = {mu[m]} "
                f"at m = {frame.label(m)}"
            )
    return None


def check_minimal_cover(frame: Frame, members: list[int]) -> str | None:
    """Distinct generators that cover every variable, each with a private one."""
    if len(set(members)) != len(members) or any(g not in frame.gens for g in members):
        return "cover repeats a generator or names a non-generator"
    covered = 0
    for g in members:
        covered |= g
    if covered != frame.full:
        return "cover misses a variable"
    for k, g in enumerate(members):
        others = 0
        for k2, g2 in enumerate(members):
            if k2 != k:
                others |= g2
        if not g & ~others:
            return "cover is not minimal"
    return None


def check_woc(frame: Frame, seq: list[int]) -> str | None:
    """The definition of a well ordered cover, for generator masks seq."""
    err = check_minimal_cover(frame, seq)
    if err:
        return err
    s = len(seq)
    suffix = [0] * (s + 1)  # suffix[j] = lcm of positions j+1..s, 1-based
    for j in range(s - 1, 0, -1):
        suffix[j] = suffix[j + 1] | seq[j]
    for n in frame.gens:
        if n in seq:
            continue
        if not any(seq[j - 1] & ~(n | suffix[j]) == 0 for j in range(1, s)):
            return f"no witness position for {frame.label(n)}"
    return None


def woc_exists(frame: Frame) -> bool:
    """Whether some ordering of some minimal cover is well ordered.

    Minimal covers are read off the unions of all generator subsets.
    Each cover's orderings are filled from the last position backward,
    the way the definition reads: placing m_j with j <= s-1 witnesses
    every non-member n with m_j | lcm(n, m_(j+1), ..., m_s).  A state is
    the members still to place and the non-members still unwitnessed;
    states that cannot finish are remembered.  Affordable for about ten
    generators.
    """
    gens = frame.gens
    q = len(gens)
    union = [0] * (1 << q)
    for pick in range(1, 1 << q):
        low = pick & -pick
        union[pick] = union[pick ^ low] | gens[low.bit_length() - 1]
    for pick in range(1, 1 << q):
        if union[pick] != frame.full:
            continue
        members = [k for k in range(q) if pick >> k & 1]
        if any(not gens[k] & ~union[pick ^ (1 << k)] for k in members):
            continue
        if _fills(gens, members, pick, ((1 << q) - 1) ^ pick):
            return True
    return False


def _fills(gens: list[int], members: list[int], remaining: int, unsat: int) -> bool:
    s = len(members)
    dead: set[tuple[int, int]] = set()

    def fill(remaining: int, unsat: int, suffix: int) -> bool:
        if not remaining:
            return not unsat
        if (remaining, unsat) in dead:
            return False
        j = remaining.bit_count()
        for k in members:
            if not remaining >> k & 1:
                continue
            g = gens[k]
            left = unsat
            if j < s:
                n = unsat
                while n:
                    low = n & -n
                    if not g & ~(gens[low.bit_length() - 1] | suffix):
                        left ^= low
                    n ^= low
            if fill(remaining ^ (1 << k), left, suffix | g):
                return True
        dead.add((remaining, unsat))
        return False

    return fill(remaining, unsat, 0)


def check_woc_beta(table: dict[tuple[int, int], int], seq: list[int]) -> str | None:
    """A well ordered cover of length s forces beta_(s, lcm) >= 1."""
    lcm = 0
    for g in seq:
        lcm |= g
    if table.get((len(seq), lcm), 0) < 1:
        return f"well ordered cover of length {len(seq)} has beta = 0 at its lcm"
    return None


def max_shifts(table: dict[tuple[int, int], int]) -> dict[int, int]:
    """t_a = the largest degree of a nonzero beta_(a, m), for a >= 1."""
    t: dict[int, int] = {}
    for (i, m) in table:
        if i >= 1:
            t[i] = max(t.get(i, 0), m.bit_count())
    return t


def check_witness_pairs(
    frame: Frame,
    table: dict[tuple[int, int], int],
    a: int,
    b: int,
    pairs: list[tuple[int, int]],
    exhaustive: bool,
) -> str | None:
    """Each pair is a lattice complement with beta_a(m), beta_b(m2) >= 1.

    With exhaustive set, an empty answer is checked against a full scan
    of the lattice (affordable on small ideals only).
    """
    for m, m2 in pairs:
        if not frame.is_complement(m, m2):
            return f"({frame.label(m)}, {frame.label(m2)}) is not a complement"
        if table.get((a, m), 0) < 1 or table.get((b, m2), 0) < 1:
            return f"witness ({frame.label(m)}, {frame.label(m2)}) has a zero beta"
    if exhaustive and not pairs:
        lefts = [m for (i, m) in table if i == a]
        rights = [m for (i, m) in table if i == b]
        if any(frame.is_complement(m, m2) for m in lefts for m2 in rights):
            return f"no witness reported for ({a},{b}) but one exists"
    return None


def check_subadditivity(
    frame: Frame,
    table: dict[tuple[int, int], int],
    t: dict[int, int],
    violations: list[tuple[int, int]],
    witnesses: dict[tuple[int, int, int], list[tuple[int, int]]],
    exhaustive: bool,
) -> str | None:
    """A subadditivity report agrees with the table it was read from."""
    expect_t = max_shifts(table)
    if t != expect_t:
        return f"report t = {t}, table gives {expect_t}"
    pd = max(expect_t, default=0)
    pairs = [(a, b) for a in range(1, pd) for b in range(a, pd) if a + b <= pd]
    expect_v = [(a, b) for a, b in pairs if expect_t[a + b] > expect_t[a] + expect_t[b]]
    if violations != expect_v:
        return f"violations {violations} != {expect_v}"
    if witnesses and set(witnesses) != {(a + b, a, b) for a, b in pairs}:
        return "witness keys do not match the (a+b, a, b) triples"
    for (_, a, b), found in witnesses.items():
        err = check_witness_pairs(frame, table, a, b, found, exhaustive)
        if err:
            return err
    return None


def check_families(frame: Frame, families: list[list[list[int]]]) -> str | None:
    """Spanning families of vertex-disjoint bouquets.

    Each family is a list of bouquets, each bouquet a list of facet
    masks: the facets of a bouquet share a vertex and each keeps a free
    vertex, the bouquets are vertex-disjoint and cover every vertex.
    """
    for family in families:
        covered = 0
        for bouquet in family:
            root = frame.full
            vertices = 0
            for f in bouquet:
                if f not in frame.gens:
                    return f"bouquet facet {frame.label(f)} is not a facet"
                root &= f
                vertices |= f
            if not root:
                return "bouquet facets share no vertex"
            for k, f in enumerate(bouquet):
                others = 0
                for k2, f2 in enumerate(bouquet):
                    if k2 != k:
                        others |= f2
                if not f & ~others:
                    return f"facet {frame.label(f)} has no free vertex"
            if vertices & covered:
                return "bouquets of a family share a vertex"
            covered |= vertices
        if covered != frame.full:
            return "family does not span the vertex set"
    return None
