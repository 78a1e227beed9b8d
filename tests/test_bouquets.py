import itertools
import json
import math
import random

import pytest

from sqfbetti import (
    RATIONALS,
    FieldSpec,
    SimplicialComplex,
    SqfMonomial,
    betti_table,
    bouquet_orderings,
    bouquet_subadditivity,
    build_bouquet_set,
    contains_strongly_disjoint_set,
    facet_complex,
    facet_distance,
    facet_ideal,
    find_well_ordered_covers,
    is_bouquet,
    is_strongly_disjoint,
    is_well_ordered_cover,
    multigraded_betti,
    outside_condition,
    parse_ideal_text,
    representative_systems,
    spans_complex,
)
from sqfbetti.bouquets import _near
from sqfbetti.errors import (
    InvalidBouquetSet,
    InvalidPartition,
    SameFacet,
    SizeLimitExceeded,
    SqfBettiError,
)

from conftest import mk, random_sqf_ideal


def fid(delta, text: str) -> int:
    """Facet index from a string of single-character variables."""
    return delta.facet_index(SqfMonomial.from_names(delta.vars, list(text)))


@pytest.fixture(scope="module")
def star_delta(star_cluster):
    return facet_complex(star_cluster)


@pytest.fixture(scope="module")
def brooms_delta(three_brooms):
    return facet_complex(three_brooms)


def test_is_bouquet_accepts_paper_examples(star_delta):
    b1 = is_bouquet(star_delta, [fid(star_delta, "bcd"), fid(star_delta, "abc")])
    assert b1
    names = {star_delta.vars.name(v) for v in b1.bouquet.root.indices()}
    assert names == {"b", "c"}

    b2_facets = [fid(star_delta, t) for t in ("gy", "gx", "eg", "fg", "gh", "gi")]
    b2 = is_bouquet(star_delta, b2_facets)
    assert b2
    assert {star_delta.vars.name(v) for v in b2.bouquet.root.indices()} == {"g"}
    # one free vertex witnessed per facet
    assert len(b2.bouquet.free_vertex_witness) == 6


def test_is_bouquet_rejections(star_delta):
    no = is_bouquet(star_delta, [])
    assert not no and "at least one" in no.reason
    rep = is_bouquet(star_delta, [0, 0])
    assert not rep and "repeated" in rep.reason
    empty_root = is_bouquet(star_delta, [fid(star_delta, "abc"), fid(star_delta, "eg")])
    assert not empty_root and "empty common intersection" in empty_root.reason


def test_is_bouquet_requires_free_vertices():
    I = mk("xab", "xbc", "xca")
    delta = facet_complex(I)
    check = is_bouquet(delta, [0, 1, 2])
    assert not check
    assert "free vertex" in check.reason


def test_facet_distance_basics(brooms_delta):
    ax = fid(brooms_delta, "ax")
    ay = fid(brooms_delta, "ay")
    bv = fid(brooms_delta, "bv")
    cu = fid(brooms_delta, "cu")
    assert facet_distance(brooms_delta, ax, ay) == 1
    assert facet_distance(brooms_delta, ax, bv) == 3
    assert facet_distance(brooms_delta, ax, cu) == math.inf
    with pytest.raises(SameFacet):
        facet_distance(brooms_delta, ax, ax)


def test_facet_distance_accepts_monomials(brooms_delta):
    m = SqfMonomial.from_names(brooms_delta.vars, ["a", "x"])
    m2 = SqfMonomial.from_names(brooms_delta.vars, ["a", "y"])
    assert facet_distance(brooms_delta, m, m2) == 1


def test_facet_distance_symmetry_and_triangle(star_delta):
    n = len(star_delta.facets)
    d = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                d[i, j] = facet_distance(star_delta, i, j)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            assert d[i, j] == d[j, i]
            for k in range(n):
                if k in (i, j):
                    continue
                assert d[i, j] <= d[i, k] + d[k, j]


def test_strongly_disjoint_paper_family(brooms_delta):
    groups = [("ax", "ay"), ("bz", "bv", "bw"), ("cu", "cg")]
    bouquets = [
        is_bouquet(brooms_delta, [fid(brooms_delta, t) for t in g]).bouquet
        for g in groups
    ]
    reps = [fid(brooms_delta, t) for t in ("ax", "bv", "cu")]
    ok, reasons = is_strongly_disjoint(brooms_delta, bouquets, reps)
    assert ok and not reasons
    # swapping in bz breaks 3-disjointness against ax
    bad = [fid(brooms_delta, t) for t in ("ax", "bz", "cu")]
    ok, reasons = is_strongly_disjoint(brooms_delta, bouquets, bad)
    assert not ok
    assert any("3-disjoint" in r for r in reasons)


def test_spans_and_outside_condition(star_delta):
    b1 = is_bouquet(star_delta, [fid(star_delta, "bcd"), fid(star_delta, "abc")]).bouquet
    b2 = is_bouquet(
        star_delta, [fid(star_delta, t) for t in ("gy", "gx", "eg", "fg", "gh", "gi")]
    ).bouquet
    assert spans_complex(star_delta, [b1, b2])
    assert not spans_complex(star_delta, [b1])
    assert outside_condition(star_delta, [b1, b2])


def test_representative_systems_are_exactly_the_valid_ones(brooms_delta):
    groups = [("ax", "ay"), ("bz", "bv", "bw"), ("cu", "cg")]
    bouquets = [
        is_bouquet(brooms_delta, [fid(brooms_delta, t) for t in g]).bouquet
        for g in groups
    ]
    systems = representative_systems(brooms_delta, bouquets)
    assert systems
    for sys_ in systems:
        ok, _ = is_strongly_disjoint(brooms_delta, bouquets, sys_)
        assert ok
    # bz is never a representative: it sits two steps from ax and ay
    assert all(fid(brooms_delta, "bz") not in s for s in systems)
    assert systems == sorted(systems)


def test_build_bouquet_set_defaults_to_lex_least_reps(brooms_delta):
    groups = [
        [fid(brooms_delta, t) for t in g]
        for g in (("ax", "ay"), ("bz", "bv", "bw"), ("cu", "cg"))
    ]
    bset = build_bouquet_set(brooms_delta, groups)
    assert bset.spans_delta
    assert bset.outside_condition_ok
    names = [
        "".join(sorted(brooms_delta.vars.name(v) for v in brooms_delta.facets[r].indices()))
        for r in bset.representatives
    ]
    assert names == ["ax", "bv", "cu"]


def test_build_bouquet_set_rejects_vertex_overlap(star_delta):
    groups = [
        [fid(star_delta, "abc"), fid(star_delta, "bcd")],
        [fid(star_delta, "cdf"), fid(star_delta, "def")],
    ]
    with pytest.raises(InvalidBouquetSet):
        build_bouquet_set(star_delta, groups)


def test_build_bouquet_set_rejects_non_bouquet(star_delta):
    with pytest.raises(InvalidBouquetSet):
        build_bouquet_set(star_delta, [[fid(star_delta, "abc"), fid(star_delta, "eg")]])


def test_build_bouquet_set_rejects_impossible_reps(star_delta):
    # abc and def are two apart through cdf, so no system exists
    groups = [[fid(star_delta, "abc")], [fid(star_delta, "def")]]
    with pytest.raises(InvalidBouquetSet):
        build_bouquet_set(star_delta, groups)


def test_build_bouquet_set_validates_given_reps(brooms_delta):
    groups = [
        [fid(brooms_delta, t) for t in g]
        for g in (("ax", "ay"), ("bz", "bv", "bw"), ("cu", "cg"))
    ]
    reps = [fid(brooms_delta, t) for t in ("ax", "bz", "cu")]
    with pytest.raises(InvalidBouquetSet):
        build_bouquet_set(brooms_delta, groups, reps)


def test_exhaustive_search_finds_paper_family_star(star_delta):
    found = contains_strongly_disjoint_set(star_delta)
    assert found
    as_sets = [
        tuple(sorted(tuple(sorted(b.facets)) for b in s.bouquets)) for s in found
    ]
    b1 = tuple(sorted((fid(star_delta, "abc"), fid(star_delta, "bcd"))))
    b2 = tuple(
        sorted(fid(star_delta, t) for t in ("gy", "gx", "eg", "fg", "gh", "gi"))
    )
    assert as_sets == [tuple(sorted((b1, b2)))]
    for s in found:
        assert s.spans_delta and s.outside_condition_ok
        ok, _ = is_strongly_disjoint(star_delta, s.bouquets, s.representatives)
        assert ok


def test_exhaustive_search_finds_paper_family_brooms(brooms_delta):
    found = contains_strongly_disjoint_set(brooms_delta)
    as_sets = [
        tuple(sorted(tuple(sorted(b.facets)) for b in s.bouquets)) for s in found
    ]
    expect = tuple(
        sorted(
            (
                tuple(sorted(fid(brooms_delta, t) for t in ("ax", "ay"))),
                tuple(sorted(fid(brooms_delta, t) for t in ("bz", "bv", "bw"))),
                tuple(sorted(fid(brooms_delta, t) for t in ("cu", "cg"))),
            )
        )
    )
    assert expect in as_sets


def test_search_first_only(brooms_delta):
    found = contains_strongly_disjoint_set(brooms_delta, first_only=True)
    assert len(found) == 1
    # the star of a holds all three facets and none keeps a free vertex in
    # it, but each two of them are a bouquet that spans
    delta = facet_complex(mk("abd", "abce", "acde"))
    found = [_family_key(s) for s in contains_strongly_disjoint_set(delta)]
    assert found == [(((0, 1),), (0,)), (((0, 2),), (0,)), (((1, 2),), (1,))]
    first = contains_strongly_disjoint_set(delta, first_only=True)
    assert [_family_key(s) for s in first] == found[:1]


def _family_key(bset):
    return tuple(b.facets for b in bset.bouquets), bset.representatives


def test_first_only_and_default_reps_agree_with_full_search():
    rng = random.Random(53)
    seen = 0
    for _ in range(200):
        delta = facet_complex(random_sqf_ideal(rng, max_vars=7, max_gens=7))
        found = contains_strongly_disjoint_set(delta)
        first = contains_strongly_disjoint_set(delta, first_only=True)
        assert len(first) == min(len(found), 1)
        if not found:
            continue
        seen += 1
        assert _family_key(first[0]) in {_family_key(s) for s in found}
        for s in found:
            groups = [b.facets for b in s.bouquets]
            bset = build_bouquet_set(delta, groups)
            systems = representative_systems(delta, s.bouquets)
            assert bset.representatives == systems[0] == s.representatives
    assert seen >= 10


def test_search_budget(star_delta):
    with pytest.raises(SizeLimitExceeded):
        contains_strongly_disjoint_set(star_delta, budget=3)


def test_search_empty_when_nothing_spans(path3):
    # xy and zu are 1 apart through yz, and any spanning family needs both
    delta = facet_complex(path3)
    assert contains_strongly_disjoint_set(delta) == []


def test_orderings_are_well_ordered_covers(star_cluster, star_delta):
    bset = build_bouquet_set(
        star_delta,
        [
            [fid(star_delta, "bcd"), fid(star_delta, "abc")],
            [fid(star_delta, t) for t in ("gy", "gx", "eg", "fg", "gh", "gi")],
        ],
        [fid(star_delta, "abc"), fid(star_delta, "gx")],
    )
    for perm in (None, (0, 1), (1, 0)):
        seq = bouquet_orderings(bset, perm)
        assert len(seq) == 8
        check = is_well_ordered_cover(star_cluster, seq)
        assert check, check.reason
    with pytest.raises(InvalidBouquetSet):
        bouquet_orderings(bset, (0, 0))
    with pytest.raises(InvalidBouquetSet):
        bouquet_orderings(bset, (0, 2))


def test_paper_block_sequences_pass(star_cluster):
    # both printed orderings: blocks with the representative last
    def seq_of(*texts):
        return tuple(
            star_cluster.index_of(SqfMonomial.from_names(star_cluster.vars, list(t)))
            for t in texts
        )

    first = seq_of("bcd", "abc", "gy", "eg", "fg", "gh", "gi", "gx")
    second = seq_of("gy", "eg", "fg", "gh", "gi", "gx", "bcd", "abc")
    assert is_well_ordered_cover(star_cluster, first)
    assert is_well_ordered_cover(star_cluster, second)


def test_orderings_require_spanning(star_delta):
    groups = [[fid(star_delta, "bcd"), fid(star_delta, "abc")]]
    bset = build_bouquet_set(star_delta, groups)
    assert not bset.spans_delta
    with pytest.raises(InvalidBouquetSet):
        bouquet_orderings(bset)


def test_subadditivity_star(star_delta, star_cluster_table):
    bset = build_bouquet_set(
        star_delta,
        [
            [fid(star_delta, "bcd"), fid(star_delta, "abc")],
            [fid(star_delta, t) for t in ("gy", "gx", "eg", "fg", "gh", "gi")],
        ],
    )
    cert = bouquet_subadditivity(bset, [0], table=star_cluster_table)
    assert (cert.b_left, cert.b_right) == (2, 6)
    assert cert.t_total == 11
    assert cert.t_left == 5 and cert.t_right == 9
    assert cert.holds and cert.complement_ok
    assert cert.beta_left >= 1 and cert.beta_right >= 1
    vars = star_delta.vars
    assert cert.m_left == SqfMonomial.from_names(vars, ["a", "b", "c", "d"])
    assert cert.m_right == SqfMonomial.from_names(
        vars, ["e", "f", "g", "h", "i", "x", "y"]
    )


def test_subadditivity_brooms_partitions(brooms_delta, three_brooms_table):
    groups = [
        [fid(brooms_delta, t) for t in g]
        for g in (("ax", "ay"), ("bz", "bv", "bw"), ("cu", "cg"))
    ]
    bset = build_bouquet_set(brooms_delta, groups)
    one = bouquet_subadditivity(bset, [0], table=three_brooms_table)
    assert (one.b_left, one.b_right) == (2, 5)
    assert one.t_total == 10
    assert one.t_left + one.t_right == 12
    two = bouquet_subadditivity(bset, [1], table=three_brooms_table)
    assert (two.b_left, two.b_right) == (3, 4)
    assert two.t_left + two.t_right == 13
    assert one.holds and two.holds


def test_subadditivity_partition_validation(brooms_delta, three_brooms_table):
    groups = [
        [fid(brooms_delta, t) for t in g]
        for g in (("ax", "ay"), ("bz", "bv", "bw"), ("cu", "cg"))
    ]
    bset = build_bouquet_set(brooms_delta, groups)
    for bad in ([], [0, 1, 2], [5]):
        with pytest.raises(InvalidPartition):
            bouquet_subadditivity(bset, bad, table=three_brooms_table)


def test_subadditivity_rejects_families_outside_the_theorem(
    brooms_delta, three_brooms_table
):
    # a*x and c*u miss the broom at b: no span, no lattice complement
    groups = [[fid(brooms_delta, "ax")], [fid(brooms_delta, "cu")]]
    bset = build_bouquet_set(brooms_delta, groups)
    assert not bset.spans_delta
    with pytest.raises(InvalidBouquetSet, match="does not span"):
        bouquet_subadditivity(bset, [0], table=three_brooms_table)
    # spans, but the outside facet b*c meets only half of the wing b*d
    delta = facet_complex(mk("af", "bc", "ce", "abd"))
    groups = [[fid(delta, "ce")], [fid(delta, "af"), fid(delta, "abd")]]
    bset = build_bouquet_set(delta, groups)
    assert bset.spans_delta and not bset.outside_condition_ok
    with pytest.raises(InvalidBouquetSet, match="outside facet condition"):
        bouquet_subadditivity(bset, [0])


def test_found_families_yield_covers_on_randoms():
    rng = random.Random(47)
    seen = 0
    tried = 0
    while seen < 8 and tried < 300:
        tried += 1
        I = random_sqf_ideal(rng, max_vars=7, max_gens=6)
        delta = facet_complex(I)
        found = contains_strongly_disjoint_set(delta)
        if not found:
            continue
        seen += 1
        for bset in found[:3]:
            seq = bouquet_orderings(bset)
            assert is_well_ordered_cover(I, seq)
    assert seen >= 1


def test_orderings_of_shuffled_facets_are_covers_of_the_facet_ideal(three_brooms):
    # a complex keeps the facet ideal's order, so the facet indices of
    # every block ordering are generator indices of facet_ideal(delta)
    rng = random.Random(61)
    cases = [(three_brooms, three_brooms.gens[::-1])]
    for _ in range(150):
        I = random_sqf_ideal(rng, max_vars=7, max_gens=7)
        cases.append((I, rng.sample(I.gens, len(I.gens))))
    seen = 0
    for I, facets in cases:
        delta = SimplicialComplex(I.vars, facets)
        for bset in contains_strongly_disjoint_set(delta):
            seen += 1
            for perm in itertools.permutations(range(len(bset))):
                seq = bouquet_orderings(bset, perm)
                check = is_well_ordered_cover(facet_ideal(delta), seq)
                assert check, (I, perm, check.reason)
    assert seen >= 10


def test_near_relation_is_facet_distance_at_most_two():
    # built once per complex, whichever of its users asks first
    rng = random.Random(71)
    for _ in range(60):
        delta = facet_complex(random_sqf_ideal(rng, max_vars=12, max_gens=10))
        near = _near(delta)
        assert _near(delta) is near
        n = len(delta.facets)
        for i in range(n):
            expect = {i} | {
                j for j in range(n) if j != i and facet_distance(delta, i, j) <= 2
            }
            assert {j for j in range(n) if near[i] >> j & 1} == expect, (delta, i)


def test_three_disjointness_matches_facet_distance():
    # facet_distance is the breadth-first oracle for the near relation
    rng = random.Random(59)
    partial = 0  # families with some, but not every, choice 3-disjoint
    for _ in range(40):
        delta = facet_complex(random_sqf_ideal(rng, max_vars=12, max_gens=10))
        n = len(delta.facets)
        far = {
            (i, j): i != j and facet_distance(delta, i, j) >= 3
            for i in range(n)
            for j in range(n)
        }
        singles = [is_bouquet(delta, [i]).bouquet for i in range(n)]
        for i, j in far:
            _, reasons = is_strongly_disjoint(delta, [singles[i], singles[j]], [i, j])
            assert any("3-disjoint" in r for r in reasons) == (not far[i, j])
        bouquets = [
            check.bouquet
            for size in (1, 2, 3)
            for subset in itertools.combinations(range(n), size)
            if (check := is_bouquet(delta, subset)).ok
        ]
        families = itertools.chain(
            itertools.combinations(bouquets, 2),
            itertools.combinations(bouquets[:10], 3),
        )
        for family in families:
            choices = list(itertools.product(*(sorted(b.facets) for b in family)))
            expected = [
                reps
                for reps in choices
                if all(far[r, c] for r, c in itertools.combinations(reps, 2))
            ]
            assert representative_systems(delta, family) == expected
            partial += 0 < len(expected) < len(choices)
            for reps in choices:
                _, reasons = is_strongly_disjoint(delta, family, reps)
                close = any("3-disjoint" in r for r in reasons)
                assert close == (reps not in expected)
    assert partial >= 100


def test_subadditivity_reads_betti_numbers_from_the_table(
    three_brooms, brooms_delta, three_brooms_table
):
    groups = [
        [fid(brooms_delta, t) for t in g]
        for g in (("ax", "ay"), ("bz", "bv", "bw"), ("cu", "cg"))
    ]
    bset = build_bouquet_set(brooms_delta, groups)
    for left in ([0], [1], [2], [0, 1]):
        cert = bouquet_subadditivity(bset, left, table=three_brooms_table)
        for b, m, beta in (
            (cert.b_left, cert.m_left, cert.beta_left),
            (cert.b_right, cert.m_right, cert.beta_right),
        ):
            assert beta == multigraded_betti(three_brooms, b, m)


def test_subadditivity_rejects_a_table_of_another_field_or_ideal(
    three_brooms, brooms_delta, star_cluster_table
):
    groups = [
        [fid(brooms_delta, t) for t in g]
        for g in (("ax", "ay"), ("bz", "bv", "bw"), ("cu", "cg"))
    ]
    bset = build_bouquet_set(brooms_delta, groups)
    gf2 = betti_table(three_brooms, field=FieldSpec.prime(2))
    with pytest.raises(SqfBettiError, match="another field"):
        bouquet_subadditivity(bset, [0], field=RATIONALS, table=gf2)
    with pytest.raises(SqfBettiError, match="another field or ideal"):
        bouquet_subadditivity(bset, [0], table=star_cluster_table)
    cert = bouquet_subadditivity(bset, [0], field=FieldSpec.prime(2), table=gf2)
    assert cert.holds and cert.field == FieldSpec.prime(2)


# ---------------------------------------------------------------------------
# the cut search against a brute force over facet assignments, which shares
# none of its code, and against the search without cuts (tests/bouquets_dfs.py)


def _record(bset):
    """Every field of a found family, for exact comparison."""
    return (
        tuple(
            (b.facets, b.root.mask, b.free_vertex_witness, b.vertex_mask)
            for b in bset.bouquets
        ),
        bset.representatives,
        bset.spans_delta,
        bset.outside_condition_ok,
    )


def _records(found):
    return [_record(s) for s in found]


def _assignments(sets, k, groups):
    # each facet from k on goes outside or into a group; a group keeps a
    # nonempty root and no vertex of another group, as bouquets must
    if k == len(sets):
        yield [tuple(g) for g in groups]
        return
    yield from _assignments(sets, k + 1, groups)
    for g in groups + [[]]:
        others = set().union(*(sets[i] for h in groups if h is not g for i in h))
        if sets[k] & others or not set.intersection(sets[k], *(sets[i] for i in g)):
            continue
        if not g:
            groups.append(g)
        g.append(k)
        yield from _assignments(sets, k + 1, groups)
        g.pop()
        if not g:
            groups.pop()


def _brute_force_families(delta):
    """The spanning strongly disjoint families, from every assignment of facets.

    Returns what contains_strongly_disjoint_set returns: each family's
    bouquets by facets, its least pairwise 3-disjoint representatives,
    the families by size and then facets.
    """
    sets = [set(f.indices()) for f in delta.facets]
    n = len(sets)
    far = {
        (i, j): facet_distance(delta, i, j) >= 3
        for i in range(n)
        for j in range(n)
        if i != j
    }
    found = []
    for groups in _assignments(sets, 0, []):
        if not groups or set().union(*(sets[i] for g in groups for i in g)) != set(
            range(len(delta.vars))
        ):
            continue
        bouquets = []
        for g in sorted(groups):
            free = [sets[i] - set().union(*(sets[j] for j in g if j != i)) for i in g]
            if not all(free):
                break
            root = set.intersection(*(sets[i] for i in g))
            bouquets.append((g, root, tuple(min(f) for f in free)))
        else:
            inside = {i for g in groups for i in g}
            wings = [sets[i] - root for g, root, _ in bouquets for i in g]
            if any(
                sets[f] & wing and not wing <= sets[f]
                for f in range(n)
                if f not in inside
                for wing in wings
            ):
                continue
            reps = next(
                (
                    reps
                    for reps in itertools.product(*(g for g, _, _ in bouquets))
                    if all(far[r, c] for r, c in itertools.combinations(reps, 2))
                ),
                None,
            )
            if reps is None:
                continue
            record = tuple(
                (
                    g,
                    sum(1 << v for v in root),
                    witnesses,
                    sum(1 << v for v in set().union(*(sets[i] for i in g))),
                )
                for g, root, witnesses in bouquets
            )
            found.append((record, reps, True, True))
    found.sort(key=lambda r: (len(r[0]), [b[0] for b in r[0]]))
    return found


def _small_fixed_complexes():
    import bouquets_search_golden

    fixed = bouquets_search_golden.load_inputs().FIXED
    return [
        facet_complex(parse_ideal_text("\n".join(gens)))
        for gens in fixed.values()
        if len(gens) <= 9
    ]


def test_search_agrees_with_brute_force_over_facet_assignments():
    rng = random.Random(89)
    deltas = _small_fixed_complexes()
    deltas += [
        facet_complex(random_sqf_ideal(rng, max_vars=7, max_gens=7)) for _ in range(300)
    ]
    families = 0
    for delta in deltas:
        found = contains_strongly_disjoint_set(delta)
        assert _records(found) == _brute_force_families(delta), delta
        first = contains_strongly_disjoint_set(delta, first_only=True)
        assert len(first) == min(len(found), 1)
        assert set(_records(first)) <= set(_records(found))
        families += len(found)
    assert families >= 150


def _edge_ideal(vertices: int, edges: int):
    pairs = list(itertools.combinations(range(vertices), 2))
    chosen = random.Random(0).sample(pairs, edges)
    return parse_ideal_text("\n".join(f"x{a} x{b}" for a, b in chosen))


def test_search_agrees_with_the_search_without_cuts():
    import bouquets_dfs
    import bouquets_search_golden

    inputs = bouquets_search_golden.load_inputs()
    ideals = list(inputs.FIXED.values())
    ideals += [gens for seed in (1, 2, 3) for gens in inputs.random_ideals(seed)]
    deltas = [facet_complex(parse_ideal_text("\n".join(gens))) for gens in ideals]
    for delta in deltas:
        for first_only in (False, True):
            got = contains_strongly_disjoint_set(delta, first_only=first_only)
            want = bouquets_dfs.strongly_disjoint_sets(delta, first_only=first_only)
            assert _records(got) == _records(want), (delta, first_only)
    for size, count in (((12, 18), 2), ((15, 24), 0)):
        delta = facet_complex(_edge_ideal(*size))
        for first_only in (False, True):
            got = contains_strongly_disjoint_set(delta, first_only=first_only)
            want = bouquets_dfs.strongly_disjoint_sets(delta, first_only=first_only)
            assert _records(got) == _records(want), (size, first_only)
            assert len(got) == (min(count, 1) if first_only else count)


def test_searches_of_the_seed_1_random_ideals_are_pinned():
    # the sha256 of every search, all and first_only, on the facet
    # complexes of the benchmark's seed-1 ideals (tests/bouquets_search_golden.py)
    import bouquets_search_golden as golden

    pinned = json.loads(golden.GOLDEN.read_text())
    assert pinned["seed"] == golden.SEED
    assert golden.differences(pinned["searches"], golden.digests()) == []


def test_covers_and_block_orderings_have_betti_numbers_on_the_seed_1_ideals():
    # independent engines agree: a well ordered cover of length s, from the
    # cover search or as a block ordering of a bouquet family, forces
    # beta_(s, lcm) >= 1 in the table, over QQ and GF(2) alike
    import bouquets_search_golden

    ideals = bouquets_search_golden.load_inputs().random_ideals(1)
    covers = orderings = 0
    for gens in ideals:
        I = parse_ideal_text("\n".join(gens))
        masks = [g.mask for g in I.gens]
        sequences = [woc.sequence for woc in find_well_ordered_covers(I)]
        covers += len(sequences)
        for bset in contains_strongly_disjoint_set(facet_complex(I)):
            for perm in itertools.permutations(range(len(bset))):
                seq = bouquet_orderings(bset, perm)
                check = is_well_ordered_cover(I, seq)
                assert check, (gens, perm, check.reason)
                sequences.append(seq)
                orderings += 1
        for field in (RATIONALS, FieldSpec.prime(2)):
            table = betti_table(I, field=field).multigraded
            nonzero = {(i, m.mask) for (i, m), rank in table.items() if rank >= 1}
            for seq in sequences:
                lcm = 0
                for k in seq:
                    lcm |= masks[k]
                assert (len(seq), lcm) in nonzero, (gens, field, seq)
    assert (covers, orderings) == (15_800, 599)


def test_capped_search_carries_the_families_emitted_before_the_cap():
    import bouquets_dfs

    rng = random.Random(97)
    raised = carried = 0
    for _ in range(60):
        delta = facet_complex(random_sqf_ideal(rng, max_vars=9, max_gens=7))
        full = _records(contains_strongly_disjoint_set(delta))
        emitted = _records(bouquets_dfs.emitted(delta))
        for budget in itertools.count(1):
            try:
                found = contains_strongly_disjoint_set(delta, budget=budget)
            except SizeLimitExceeded as e:
                partial = _records(e.partial)
                assert partial == emitted[: len(partial)]
                raised += 1
                carried += bool(partial)
            else:
                assert _records(found) == full
                break
        # the smallest budget that completes: every larger one does too
        for more in (budget + 1, 2 * budget, 10 * budget):
            assert _records(contains_strongly_disjoint_set(delta, budget=more)) == full
    assert raised >= 500 and carried >= 20


def test_representative_cut_stops_before_the_leaf(path3):
    # x y and z u are the only spanning family, and they are 2 apart:
    # the cut drops z u before the leaf.  The search spends 6 units on the
    # candidates (the root and 5 bouquets) and 7 on the families: 3 states,
    # then one system times the facets of each disjoint candidate, 1 for
    # x y, 1 for z u below it and 2 for x y, y z
    delta = facet_complex(path3)
    assert contains_strongly_disjoint_set(delta, budget=13) == []
    with pytest.raises(SizeLimitExceeded):
        contains_strongly_disjoint_set(delta, budget=12)


def test_edge_ideals_answer_exactly_or_end_within_the_budget():
    # every size gets the exact search: 20/30 has 8 families and 24/36 none,
    # and the dense 40/160 spends the default budget's work and raises
    for size, count in (((20, 30), 8), ((24, 36), 0)):
        delta = facet_complex(_edge_ideal(*size))
        assert len(contains_strongly_disjoint_set(delta)) == count
    delta = facet_complex(_edge_ideal(40, 160))
    with pytest.raises(SizeLimitExceeded, match="bouquet family search exceeded"):
        contains_strongly_disjoint_set(delta)
