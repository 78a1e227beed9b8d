"""End-to-end acceptance checks.

Every criterion prints one line on success; run with -s to see them all:

    pytest tests/test_acceptance.py -v -s
"""

import random
import time

from sqfbetti import (
    GF_32003,
    RATIONALS,
    SqfMonomial,
    alpha_values,
    betti_table,
    bouquet_orderings,
    bouquet_subadditivity,
    build_bouquet_set,
    build_lattice,
    contains_strongly_disjoint_set,
    facet_complex,
    find_well_ordered_covers,
    format_betti_m2,
    induced_subideal,
    is_well_ordered_cover,
    reduced_homology_ranks,
    restrict_monomial,
    rotate_cover,
    split_certificate,
    taylor_faces_below,
)

from conftest import mk, random_sqf_ideal
from dense import boundary_matrix


def report(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS - {detail}")


def named(I, text: str) -> SqfMonomial:
    return SqfMonomial.from_names(I.vars, list(text))


def seq_of(I, *texts):
    return tuple(I.index_of(named(I, t)) for t in texts)


def test_criterion_1_golden_table_a(triangle_tail):
    start = time.perf_counter()
    table = betti_table(triangle_tail)
    elapsed = time.perf_counter() - start
    assert table.totals() == (1, 6, 10, 7, 2)
    assert table.graded[(1, 2)] == 6
    assert table.graded[(2, 3)] == 6
    assert table.graded[(3, 4)] == 1
    assert table.graded[(2, 4)] == 4
    assert table.graded[(3, 5)] == 6
    assert table.graded[(4, 6)] == 2
    assert elapsed < 2.0
    report(1, f"golden Betti table A exact in {elapsed:.2f}s (< 2s)")


def test_criterion_2_golden_table_b(three_brooms):
    start = time.perf_counter()
    table = betti_table(three_brooms)
    elapsed = time.perf_counter() - start
    assert table.totals() == (1, 9, 28, 44, 40, 22, 7, 1)
    assert format_betti_m2(table) == (
        "       0 1  2  3  4  5 6 7\n"
        "total: 1 9 28 44 40 22 7 1\n"
        "    0: 1 .  .  .  .  . . .\n"
        "    1: . 9 10  3  .  . . .\n"
        "    2: . . 18 33 20  4 . .\n"
        "    3: . .  .  8 20 18 7 1"
    )
    assert table.graded[(7, 10)] == 1
    assert table.t[7] == 10
    assert elapsed < 60.0
    report(2, f"golden Betti table B exact, beta_(7,10)=1, t_7=10, {elapsed:.2f}s (< 60s)")


def test_criterion_3_twelve_generator_ideal(star_cluster):
    start = time.perf_counter()
    table = betti_table(star_cluster)
    assert table.graded.get((8, 11), 0) >= 1
    assert table.t[8] == 11
    assert table.graded.get((6, 7), 0) >= 1
    assert table.graded.get((2, 4), 0) >= 1
    m = named(star_cluster, "bcdfghi")
    m2 = named(star_cluster, "abcgexy")
    assert table.multigraded.get((4, m), 0) >= 1
    assert table.multigraded.get((4, m2), 0) >= 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(3, f"12-generator strand checks in {elapsed:.1f}s (< 600s)")


def test_criterion_4_cover_decisions(four_triangles, path3):
    accepted = is_well_ordered_cover(
        four_triangles, seq_of(four_triangles, "abz", "bcz", "xyz")
    )
    assert accepted.ok
    for order in (("xy", "zu"), ("zu", "xy")):
        assert not is_well_ordered_cover(path3, seq_of(path3, *order)).ok
    assert find_well_ordered_covers(path3) == []
    report(4, "cover decisions match both worked examples")


def test_criterion_5_reordering(star_cluster):
    seq = seq_of(star_cluster, "gy", "gx", "eg", "fg", "bcd", "gh", "gi", "abc")
    check = is_well_ordered_cover(star_cluster, seq)
    assert check.ok
    alphas, ell = alpha_values(star_cluster, check.woc)
    by_gen = {n: a for n, a in alphas}

    def alpha_of(text: str) -> int:
        return by_gen[star_cluster.index_of(named(star_cluster, text))]

    listed = (alpha_of("cdf"), alpha_of("def"), alpha_of("fi"), alpha_of("hi"))
    assert listed == (5, 5, 4, 6)
    assert ell == 4
    rotated = rotate_cover(check.woc, 4)
    expect = seq_of(star_cluster, "fg", "bcd", "gh", "gi", "abc", "gy", "gx", "eg")
    assert rotated == expect
    assert is_well_ordered_cover(star_cluster, rotated).ok
    report(5, "alpha=(5,5,4,6), ell=4, rotation at 4 verified")


def test_criterion_6_bouquets(star_cluster, three_brooms):
    star_delta = facet_complex(star_cluster)
    brooms_delta = facet_complex(three_brooms)

    def family_sets(found):
        return {
            tuple(sorted(tuple(sorted(b.facets)) for b in s.bouquets)) for s in found
        }

    star_groups = [
        [star_cluster.index_of(named(star_cluster, t)) for t in ("bcd", "abc")],
        [
            star_cluster.index_of(named(star_cluster, t))
            for t in ("gy", "gx", "eg", "fg", "gh", "gi")
        ],
    ]
    star_family = tuple(sorted(tuple(sorted(g)) for g in star_groups))
    assert star_family in family_sets(contains_strongly_disjoint_set(star_delta))

    brooms_groups = [
        [three_brooms.index_of(named(three_brooms, t)) for t in g]
        for g in (("ax", "ay"), ("bz", "bv", "bw"), ("cu", "cg"))
    ]
    brooms_family = tuple(sorted(tuple(sorted(g)) for g in brooms_groups))
    assert brooms_family in family_sets(contains_strongly_disjoint_set(brooms_delta))

    # the two printed block orderings, representatives last in each block
    first = seq_of(star_cluster, "bcd", "abc", "gy", "eg", "fg", "gh", "gi", "gx")
    second = seq_of(star_cluster, "gy", "eg", "fg", "gh", "gi", "gx", "bcd", "abc")
    assert is_well_ordered_cover(star_cluster, first).ok
    assert is_well_ordered_cover(star_cluster, second).ok

    star_table = betti_table(star_cluster)
    star_bset = build_bouquet_set(star_delta, star_groups)
    cert = bouquet_subadditivity(star_bset, [0], table=star_table)
    assert (cert.b_left, cert.b_right) == (2, 6)
    assert cert.holds and cert.t_total <= cert.t_left + cert.t_right

    brooms_table = betti_table(three_brooms)
    brooms_bset = build_bouquet_set(brooms_delta, brooms_groups)
    one = bouquet_subadditivity(brooms_bset, [0], table=brooms_table)
    assert one.t_left + one.t_right == 12 and one.t_total < 12
    two = bouquet_subadditivity(brooms_bset, [1], table=brooms_table)
    assert two.t_left + two.t_right == 13 and two.t_total < 13
    report(6, "both families found; orderings pass; t_8<=t_2+t_6, t_7<12, t_7<13")


def _check_boundary_and_euler(layers) -> None:
    """d o d = 0 and the Euler characteristic identity for one complex."""
    ranks = reduced_homology_ranks(layers)
    if not layers:
        assert ranks.face_counts == {}
        return
    for d in range(1, len(layers) - 1):
        A = boundary_matrix(layers[d - 1], layers[d])
        B = boundary_matrix(layers[d], layers[d + 1])
        if A.size and B.size:
            assert not (A @ B).any()
    chi_c = sum((-1) ** d * c for d, c in ranks.face_counts.items())
    chi_h = sum((-1) ** d * h for d, h in ranks.homology_ranks.items())
    assert chi_c == chi_h


def test_criterion_7_property_suite():
    start = time.perf_counter()
    rng = random.Random(777)
    count = 500
    woc_ideals = 0
    for trial in range(count):
        I = random_sqf_ideal(rng, max_vars=7, max_gens=6)
        q = len(I.gens)
        table = betti_table(I)
        lat = build_lattice(I)

        # (e) graded equals the multigraded sums
        sums = {}
        for (i, m), rank in table.multigraded.items():
            key = (i, m.degree)
            sums[key] = sums.get(key, 0) + rank
        assert sums == table.graded

        # (c) restriction identity and (d) chain-level sanity, per element
        for m in lat.elements:
            faces = taylor_faces_below(I, m)
            _check_boundary_and_euler(faces)
            ranks = reduced_homology_ranks(faces)
            if m.is_one:
                continue
            for i in range(1, q + 1):
                assert table.multigraded.get((i, m), 0) == ranks.h(i - 2)
            sub = induced_subideal(I, m)
            assert sub
            m_sub = restrict_monomial(m, I.vars, sub.vars)
            sub_ranks = reduced_homology_ranks(taylor_faces_below(sub, m_sub))
            for i in range(1, q + 1):
                assert ranks.h(i - 2) == sub_ranks.h(i - 2)

        # (a) every found cover certifies its Betti number,
        # (b) every split of a sample of them passes its checks
        found = find_well_ordered_covers(I)
        if found:
            woc_ideals += 1
        for woc in found:
            s = len(woc.sequence)
            lcm = SqfMonomial.one()
            for k in woc.sequence:
                lcm = lcm.lcm(I.gens[k])
            assert table.multigraded.get((s, lcm), 0) >= 1
        for woc in found[:20]:
            for a in range(1, len(woc.sequence)):
                cert = split_certificate(I, woc, a)
                assert cert.complement_ok and cert.suffix_woc_ok

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(
        7,
        f"{count} random ideals, zero failures in {elapsed:.1f}s (< 600s); "
        f"{woc_ideals} admitted well ordered covers",
    )


def test_criterion_8_field_cross_check(
    path3, four_triangles, triangle_tail, three_brooms, star_cluster
):
    ideals = {
        "path": path3,
        "four triangles": four_triangles,
        "triangle+tail": triangle_tail,
        "three brooms": three_brooms,
        "star cluster": star_cluster,
    }
    for label, I in ideals.items():
        a = betti_table(I, field=RATIONALS)
        b = betti_table(I, field=GF_32003)
        assert a.multigraded == b.multigraded, label
        assert a.graded == b.graded, label
    report(8, "rationals and GF(32003) agree on all five ideals")
