import itertools
import random

import pytest

from sqfbetti import (
    SqfMonomial,
    build_lattice,
    enumerate_complements,
    hasse_pairs,
    is_lattice_complement,
    parse_ideal_text,
)
from sqfbetti.errors import NotInLattice, SizeLimitExceeded
from sqfbetti import lattice
from sqfbetti.lattice import complementary, in_lattice

from conftest import mk, random_sqf_ideal


def test_path3_lattice_elements(path3):
    lat = build_lattice(path3)
    assert len(lat) == 7
    assert lat.elements[0].is_one
    assert lat.top() == path3.top()
    names = {
        "".join(path3.vars.name(i) for i in m.indices()) for m in lat.elements
    }
    assert names == {"", "xy", "yz", "zu", "xyz", "yzu", "xyzu"}


def test_known_lattice_sizes(triangle_tail, three_brooms, star_cluster):
    assert len(build_lattice(triangle_tail)) == 26
    assert len(build_lattice(three_brooms)) == 180
    assert len(build_lattice(star_cluster)) == 333


def test_elements_sorted_bottom_first_top_last(triangle_tail):
    lat = build_lattice(triangle_tail)
    keys = [m.sort_key() for m in lat.elements]
    assert keys == sorted(keys)
    assert lat.elements[0].is_one
    assert lat.elements[-1] == triangle_tail.top()


def test_witness_realizes_element(three_brooms):
    lat = build_lattice(three_brooms)
    for m in lat.elements:
        w = lat.witness[m.mask]
        joined = 0
        for gi in w:
            joined |= three_brooms.gens[gi].mask
        assert joined == m.mask
    assert lat.witness[0] == ()


def test_elements_and_witnesses_on_randoms():
    rng = random.Random(23)
    for _ in range(40):
        I = random_sqf_ideal(rng, max_vars=9, max_gens=8)
        lat = build_lattice(I)
        keys = [(m.degree, m.indices()) for m in lat.elements]
        assert keys == sorted(keys)
        for m in lat.elements:
            w = lat.witness[m.mask]
            assert all(a < b for a, b in zip(w, w[1:]))
            joined = 0
            for gi in w:
                joined |= I.gens[gi].mask
            assert joined == m.mask


def test_lattice_closed_under_joins(four_triangles):
    lat = build_lattice(four_triangles)
    for a in lat.elements:
        for b in lat.elements:
            assert a.lcm(b).mask in lat.witness


def test_membership_test_agrees_with_the_built_lattice():
    rng = random.Random(11)
    for _ in range(25):
        I = random_sqf_ideal(rng)
        lat = build_lattice(I)
        for mask in range(I.vars.full_mask + 1):
            m = SqfMonomial(mask)
            assert in_lattice(I, m) == (mask in lat.witness), (I, mask)


def test_cap_raises_with_partial(three_brooms):
    with pytest.raises(SizeLimitExceeded) as e:
        build_lattice(three_brooms, cap=10)
    partial = e.value.partial
    assert partial is not None
    assert len(partial) > 10


def all_generator_lattice(I, cap):
    """The lattice search that joins every element with every generator.

    Returns (elements, witness) or ("cap", partial) when the element
    count exceeds cap; the oracle for build_lattice, which joins an
    element only with the generators after its witness's last index.
    """
    witness = {0: ()}
    frontier = [0]
    while frontier:
        fresh = []
        for m in frontier:
            for gi, g in enumerate(I.gens):
                j = m | g.mask
                if j not in witness:
                    witness[j] = witness[m] + (gi,)
                    fresh.append(j)
                    if len(witness) > cap:
                        return "cap", sorted(map(SqfMonomial, witness))
        frontier = fresh
    return sorted(map(SqfMonomial, witness)), witness


def test_build_lattice_matches_the_all_generator_search(three_brooms, star_cluster):
    rng = random.Random(29)
    ideals = [three_brooms, star_cluster]
    ideals += [random_sqf_ideal(rng, max_vars=9, max_gens=9) for _ in range(150)]
    for I in ideals:
        elements, witness = all_generator_lattice(I, cap=10**6)
        lat = build_lattice(I)
        assert list(lat.elements) == elements, I
        assert lat.witness == witness, I
        # the same elements are found in the same order, so the cap
        # trips at the same element with the same partial lattice
        cap = len(elements) // 2
        with pytest.raises(SizeLimitExceeded) as e:
            build_lattice(I, cap=cap)
        assert e.value.partial == all_generator_lattice(I, cap)[1], I


def spread_ideal(rng, n, q, size, wide=False):
    """An ideal of q random generators with sizes drawn from size, on n variables.

    Each variable goes to one generator first; a draw where one generator
    divides another would lose variables to minimality, and is redrawn.
    """
    while True:
        supports = [set(rng.sample(range(n), rng.choice(size))) for _ in range(q)]
        for v in range(n):
            rng.choice(supports).add(v)
        if not any(a < b for a in supports for b in supports):
            text = "\n".join(" ".join(f"x{v}" for v in sorted(s)) for s in supports)
            return parse_ideal_text(text, wide=wide)


def test_lattice_order_across_byte_widths():
    # the sort key of the lattice search mirrors each mask in whole bytes:
    # 9-16 variables take 2 bytes, 17-24 take 3, over 64 take 9; the
    # oracle orders by SqfMonomial.__lt__
    rng = random.Random(31)
    ideals = [
        spread_ideal(rng, n, rng.randint(2, 9), (2, 3, 4, 5))
        for n in range(9, 25)
        for _ in range(6)
    ]
    ideals.append(spread_ideal(rng, 70, 6, (14, 15, 16), wide=True))
    widths = {-(-len(I.vars) // 8) for I in ideals}
    assert {2, 3, 9} <= widths
    for I in ideals:
        elements, witness = all_generator_lattice(I, cap=10**6)
        lat = build_lattice(I)
        assert list(lat.elements) == elements, I
        assert lat.witness == witness, I
        cap = len(elements) // 2
        with pytest.raises(SizeLimitExceeded) as e:
            build_lattice(I, cap=cap)
        assert e.value.partial == all_generator_lattice(I, cap)[1], I


def test_complement_requires_lattice_membership(path3):
    xz = SqfMonomial.from_names(path3.vars, ["x", "z"])
    top = path3.top()
    with pytest.raises(NotInLattice):
        is_lattice_complement(path3, xz, top)


def test_complement_does_not_build_the_lattice():
    # the edge ideal of a random graph on 24 vertices and 36 edges has
    # more lcm lattice elements than the default cap of 2^20 (a build cut
    # at 2^12 shows the scale); membership of two generators and of a
    # variable is decided from the generators alone
    pairs = list(itertools.combinations(range(24), 2))
    edges = random.Random(0).sample(pairs, 36)
    I = parse_ideal_text("\n".join(f"x{u} x{v}" for u, v in edges))
    with pytest.raises(SizeLimitExceeded):
        build_lattice(I, cap=2**12)
    m, m2 = I.gens[0], I.gens[1]
    assert is_lattice_complement(I, m, m2) is False  # lcm(m, m2) misses variables
    x = SqfMonomial.from_indices([0])
    with pytest.raises(NotInLattice):
        is_lattice_complement(I, m, x)


def test_complement_example(triangle_tail):
    vars = triangle_tail.vars
    xyz = SqfMonomial.from_names(vars, ["x", "y", "z"])
    abc = SqfMonomial.from_names(vars, ["a", "b", "c"])
    # union is everything and gcd(xyz, abc) = 1, not in the ideal
    assert is_lattice_complement(triangle_tail, xyz, abc)
    # abxy and bcxz: union is everything, gcd = bx not in I
    abxy = SqfMonomial.from_names(vars, ["a", "b", "x", "y"])
    bcxz = SqfMonomial.from_names(vars, ["b", "c", "x", "z"])
    assert is_lattice_complement(triangle_tail, abxy, bcxz)
    # xyz vs xyzab: union misses c
    xyzab = SqfMonomial.from_names(vars, ["x", "y", "z", "a", "b"])
    assert not is_lattice_complement(triangle_tail, xyz, xyzab)


def test_gcd_in_ideal_is_not_complement(path3):
    xyz = SqfMonomial.from_names(path3.vars, ["x", "y", "z"])
    yzu = SqfMonomial.from_names(path3.vars, ["y", "z", "u"])
    # union covers everything but gcd = yz lies in the ideal
    assert not is_lattice_complement(path3, xyz, yzu)


def test_enumerate_complements_ordering(triangle_tail):
    vars = triangle_tail.vars
    xyz = SqfMonomial.from_names(vars, ["x", "y", "z"])
    comps = enumerate_complements(triangle_tail, xyz)
    assert comps
    keys = [c.sort_key() for c in comps]
    assert keys == sorted(keys)
    for c in comps:
        assert is_lattice_complement(triangle_tail, xyz, c)


def complements_by_filter(I, m):
    """The complements of m by building the lattice and filtering it."""
    return [m2 for m2 in build_lattice(I).elements if complementary(I, m, m2)]


def test_complements_match_the_lattice_filter():
    rng = random.Random(29)
    ideals = [random_sqf_ideal(rng, max_vars=8, max_gens=8) for _ in range(200)]
    for I in ideals:
        for m in build_lattice(I).elements:
            assert enumerate_complements(I, m) == complements_by_filter(I, m), (I, m)


def test_complements_of_a_generator_need_no_lattice():
    # the 24/36 edge ideal of test_complement_does_not_build_the_lattice:
    # a complement of an edge holds the other 22 variables and at most
    # one end of the edge, so only 3 sets are searched
    pairs = list(itertools.combinations(range(24), 2))
    edges = random.Random(0).sample(pairs, 36)
    I = parse_ideal_text("\n".join(f"x{u} x{v}" for u, v in edges))
    m = I.gens[0]
    comps = enumerate_complements(I, m)
    assert len(comps) == 3
    rest = I.vars.full_mask & ~m.mask
    assert {c.mask & m.mask for c in comps} == {0} | {1 << k for k in m.indices()}
    assert all(c.mask & rest == rest for c in comps)


def test_complement_search_cap_carries_the_complements_found(monkeypatch):
    # three disjoint edges of the 12-cycle: every set T of their variables
    # that holds no edge, 3^3 of them, gives a complement
    I = parse_ideal_text("\n".join(f"x{i} x{(i + 1) % 12}" for i in range(12)))
    m = SqfMonomial.from_names(I.vars, ["x0", "x1", "x4", "x5", "x8", "x9"])
    every = enumerate_complements(I, m)
    assert len(every) == 27
    monkeypatch.setattr(lattice, "DEFAULT_LATTICE_CAP", 10)
    with pytest.raises(SizeLimitExceeded) as e:
        enumerate_complements(I, m)
    partial = e.value.partial
    assert len(partial) == 10 and set(partial) <= set(every)
    keys = [c.sort_key() for c in partial]
    assert keys == sorted(keys)


def test_complement_symmetry_on_randoms():
    rng = random.Random(7)
    for _ in range(25):
        I = random_sqf_ideal(rng)
        lat = build_lattice(I)
        els = lat.elements
        for _ in range(10):
            m = rng.choice(els)
            m2 = rng.choice(els)
            a = is_lattice_complement(I, m, m2)
            b = is_lattice_complement(I, m2, m)
            assert a == b


def test_hasse_pairs_path3(path3):
    lat = build_lattice(path3)
    pairs = hasse_pairs(lat)
    els = lat.elements
    for lo, hi in pairs:
        assert els[lo].divides(els[hi])
        assert els[lo] != els[hi]
        between = [
            k
            for k in range(len(els))
            if k not in (lo, hi)
            and els[lo].divides(els[k])
            and els[k].divides(els[hi])
        ]
        assert not between
    # bottom covers: exactly the generators
    bottom_covers = {hi for lo, hi in pairs if lo == 0}
    gen_positions = {
        i for i, m in enumerate(els) if m in set(path3.gens)
    }
    assert bottom_covers == gen_positions


def _hasse_pairs_by_divisibility(lattice):
    """The cover relations by the O(n^3) divisibility loop: the oracle."""
    els = lattice.elements
    n = len(els)
    below: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and els[i].divides(els[j]):
                below[j].append(i)
    pairs = []
    for j in range(n):
        for i in below[j]:
            # i is covered by j unless something sits strictly between
            if not any(
                k != i and els[i].divides(els[k]) for k in below[j] if k != j
            ):
                pairs.append((i, j))
    return pairs


def test_hasse_pairs_match_the_divisibility_oracle(triangle_tail, three_brooms):
    rng = random.Random(83)
    ideals = [triangle_tail, three_brooms] + [
        random_sqf_ideal(rng, max_vars=7, max_gens=7) for _ in range(300)
    ]
    for I in ideals:
        lat = build_lattice(I)
        assert hasse_pairs(lat) == _hasse_pairs_by_divisibility(lat), I
