import importlib.util
import random
from pathlib import Path

import pytest

from sqfbetti import (
    SqfMonomial,
    betti_table,
    build_lattice,
    is_lattice_complement,
    multigraded_betti,
    parse_ideal_text,
    search_complement_witnesses,
    top_degree_check,
    verify_subadditivity,
)
from sqfbetti.errors import OutOfRange, SqfBettiError
from sqfbetti.homology import FieldSpec
from sqfbetti.lattice import complementary

from conftest import mk, random_sqf_ideal


def test_report_on_triangle_tail(triangle_tail, triangle_tail_table):
    report = verify_subadditivity(triangle_tail, table=triangle_tail_table)
    assert report.holds
    assert report.violations == []
    assert report.pd == 4
    assert report.t == {1: 2, 2: 4, 3: 5, 4: 6}
    assert report.witnesses == {}


def test_report_on_three_brooms(three_brooms, three_brooms_table):
    report = verify_subadditivity(three_brooms, table=three_brooms_table)
    assert report.holds
    assert report.pd == 7


def test_report_with_witnesses(triangle_tail, triangle_tail_table):
    report = verify_subadditivity(
        triangle_tail, table=triangle_tail_table, with_witnesses=True
    )
    assert report.holds
    # every admissible (a, b) pair shows up as a key
    pd = report.pd
    expect = {
        (a + b, a, b)
        for a in range(1, pd)
        for b in range(a, pd)
        if a + b <= pd
    }
    assert set(report.witnesses) == expect
    n = len(triangle_tail.vars)
    for (i, a, b), pairs in report.witnesses.items():
        for m, m2 in pairs:
            assert is_lattice_complement(triangle_tail, m, m2)
            assert multigraded_betti(triangle_tail, a, m) >= 1
            assert multigraded_betti(triangle_tail, b, m2) >= 1
            # witnessed pairs force the degree bound from the report
            assert report.t[a] + report.t[b] >= m.degree + m2.degree >= n


def test_witness_search_example(triangle_tail, triangle_tail_table):
    vars = triangle_tail.vars
    pairs = search_complement_witnesses(
        triangle_tail, 4, 2, 2, table=triangle_tail_table
    )
    assert pairs == [
        (
            SqfMonomial.from_names(vars, ["x", "y", "z"]),
            SqfMonomial.from_names(vars, ["a", "b", "c"]),
        )
    ]


def test_witness_search_all_pairs_sorted(triangle_tail, triangle_tail_table):
    pairs = search_complement_witnesses(
        triangle_tail, 4, 2, 2, all_pairs=True, table=triangle_tail_table
    )
    assert len(pairs) >= 1
    keys = [(m.sort_key(), m2.sort_key()) for m, m2 in pairs]
    assert keys == sorted(keys)
    for m, m2 in pairs:
        assert is_lattice_complement(triangle_tail, m, m2)


def test_witness_search_argument_checks(triangle_tail, triangle_tail_table):
    with pytest.raises(OutOfRange):
        search_complement_witnesses(triangle_tail, 4, 1, 2, table=triangle_tail_table)
    with pytest.raises(OutOfRange):
        search_complement_witnesses(triangle_tail, 1, 0, 1, table=triangle_tail_table)


def test_witness_search_can_come_up_empty(path3):
    table = betti_table(path3)
    # pd = 2 for the path, so no (1, 1) witness has beta_2 support at
    # complementary multidegrees unless one actually exists; xz misses y
    pairs = search_complement_witnesses(path3, 2, 1, 1, table=table)
    for m, m2 in pairs:
        assert m.lcm(m2).mask == path3.vars.full_mask


def test_top_degree_star_cases(star_cluster, star_cluster_table):
    for a, b in ((7, 1), (6, 2), (5, 3)):
        chk = top_degree_check(star_cluster, 8, a, b, table=star_cluster_table)
        assert chk.applicable
        assert chk.r == 11
        assert chk.holds
        assert chk.t_a + chk.t_b >= 11


def test_top_degree_inapplicable(triangle_tail, triangle_tail_table):
    # beta_{2, top} = 0 here: t_2 = 4 < 6
    chk = top_degree_check(triangle_tail, 2, 1, 1, table=triangle_tail_table)
    assert not chk.applicable
    assert chk.holds
    assert chk.t_a is None and chk.t_b is None
    assert chk.witnesses == []


def test_top_degree_applicable_with_witnesses(triangle_tail, triangle_tail_table):
    chk = top_degree_check(triangle_tail, 4, 2, 2, table=triangle_tail_table)
    assert chk.applicable
    assert chk.holds
    assert chk.witnesses
    for m, m2 in chk.witnesses:
        assert is_lattice_complement(triangle_tail, m, m2)


def test_top_degree_argument_checks(triangle_tail, triangle_tail_table):
    with pytest.raises(OutOfRange):
        top_degree_check(triangle_tail, 4, 3, 2, table=triangle_tail_table)
    with pytest.raises(OutOfRange):
        top_degree_check(triangle_tail, 0, 0, 0, table=triangle_tail_table)


def test_reports_hold_on_randoms():
    rng = random.Random(53)
    for _ in range(20):
        I = random_sqf_ideal(rng, max_vars=6, max_gens=5)
        report = verify_subadditivity(I)
        assert report.holds, (I, report.violations)


def test_witnesses_shared_lattice_consistency(three_brooms, three_brooms_table):
    # handing in the table must not change the answer
    a = search_complement_witnesses(three_brooms, 7, 2, 5, table=three_brooms_table)
    b = search_complement_witnesses(three_brooms, 7, 2, 5)
    assert a == b


def test_witness_search_matches_full_scan():
    rng = random.Random(61)
    hits = 0
    for _ in range(25):
        I = random_sqf_ideal(rng, max_vars=6, max_gens=6)
        table = betti_table(I)
        lat = build_lattice(I)
        beta = table.multigraded
        for a in range(1, table.pd):
            for b in range(1, table.pd - a + 1):
                # every pair of lattice elements, in lattice order
                full = [
                    (m, m2)
                    for m in lat.elements
                    for m2 in lat.elements
                    if beta.get((a, m), 0)
                    and beta.get((b, m2), 0)
                    and is_lattice_complement(I, m, m2)
                ]
                got = search_complement_witnesses(
                    I, a + b, a, b, all_pairs=True, table=table
                )
                assert got == full
                first = search_complement_witnesses(
                    I, a + b, a, b, table=table
                )
                assert first == full[:1]
                hits += bool(full)
    assert hits >= 10


def pairwise_scan(I, a, b, table, all_pairs):
    """Every pair of nonzero entries in degrees a and b, in lattice order.

    The witness search before the bitset index, kept as its oracle.
    """

    def nonzero_in(degree):
        found = [
            m for (d, m), rank in table.multigraded.items() if d == degree and rank
        ]
        return sorted(found, key=SqfMonomial.sort_key)

    right = nonzero_in(b)
    out = []
    for m in nonzero_in(a):
        for m2 in right:
            if complementary(I, m, m2):
                out.append((m, m2))
                if not all_pairs:
                    return out
    return out


def benchmark_ideals():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [parse_ideal_text("\n".join(gens)) for gens in inputs.FIXED.values()]


def test_witness_search_matches_the_pairwise_scan():
    rng = random.Random(67)
    ideals = benchmark_ideals()
    ideals += [random_sqf_ideal(rng, max_vars=9, max_gens=9) for _ in range(300)]
    found = 0
    for I in ideals:
        table = betti_table(I)
        for a in range(1, table.pd):
            for b in range(1, table.pd - a + 1):
                every = pairwise_scan(I, a, b, table, all_pairs=True)
                got = search_complement_witnesses(
                    I, a + b, a, b, all_pairs=True, table=table
                )
                assert got == every, (I, a, b)
                first = search_complement_witnesses(I, a + b, a, b, table=table)
                assert first == every[:1], (I, a, b)
                found += len(every)
    assert found >= 10_000


@pytest.mark.parametrize(
    "call",
    [
        lambda I, table: verify_subadditivity(I, table=table, with_witnesses=True),
        lambda I, table: search_complement_witnesses(I, 2, 1, 1, table=table),
        lambda I, table: top_degree_check(I, 2, 1, 1, table=table),
    ],
    ids=["verify_subadditivity", "search_complement_witnesses", "top_degree_check"],
)
def test_table_of_another_field_or_ideal_is_refused(path3, call):
    call(path3, betti_table(mk("xy", "yz", "zu")))  # an equal ideal is the same ideal
    with pytest.raises(SqfBettiError, match="another field or ideal"):
        call(path3, betti_table(path3, FieldSpec(2)))
    with pytest.raises(SqfBettiError, match="another field or ideal"):
        call(path3, betti_table(mk("xy", "yz", "zu", "ux")))
