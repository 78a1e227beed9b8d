import importlib.util
import json
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqfbetti import (
    GF_32003,
    RATIONALS,
    FieldSpec,
    SqfMonomial,
    VariableTable,
    betti_table,
    build_lattice,
    format_betti_json,
    format_betti_m2,
    induced_subideal,
    multigraded_betti,
    normalize_generators,
    parse_ideal_text,
    restrict_monomial,
    t_max,
    taylor_faces_below,
    reduced_homology_ranks,
)
from sqfbetti.errors import OutOfRange, SizeLimitExceeded, SqfBettiError
from sqfbetti.homology import homology_below

import betti_golden
from betti_dict import betti_dict
from conftest import mk, random_sqf_ideal

TABLE_A_M2 = """\
       0 1  2 3 4
total: 1 6 10 7 2
    0: 1 .  . . .
    1: . 6  6 1 .
    2: . .  4 6 2"""

TABLE_B_M2 = """\
       0 1  2  3  4  5 6 7
total: 1 9 28 44 40 22 7 1
    0: 1 .  .  .  .  . . .
    1: . 9 10  3  .  . . .
    2: . . 18 33 20  4 . .
    3: . .  .  8 20 18 7 1"""


def test_golden_table_a(triangle_tail_table):
    table = triangle_tail_table
    assert table.totals() == (1, 6, 10, 7, 2)
    assert table.graded[(1, 2)] == 6
    assert table.graded[(2, 3)] == 6
    assert table.graded[(3, 4)] == 1
    assert table.graded[(2, 4)] == 4
    assert table.graded[(3, 5)] == 6
    assert table.graded[(4, 6)] == 2
    assert table.pd == 4
    assert table.t == {1: 2, 2: 4, 3: 5, 4: 6}


def test_golden_table_a_m2_bytes(triangle_tail_table):
    assert format_betti_m2(triangle_tail_table) == TABLE_A_M2


def test_golden_table_b(three_brooms_table):
    table = three_brooms_table
    assert table.totals() == (1, 9, 28, 44, 40, 22, 7, 1)
    assert format_betti_m2(table) == TABLE_B_M2
    assert table.graded[(7, 10)] == 1
    assert t_max(table, 7) == 10


def test_multigraded_example(triangle_tail):
    vars = triangle_tail.vars
    m = SqfMonomial.from_names(vars, ["b", "c", "x", "y", "z"])
    assert multigraded_betti(triangle_tail, 3, m) == 2


def test_beta_zero_outside_lattice(triangle_tail):
    vars = triangle_tail.vars
    lat = build_lattice(triangle_tail)
    rng = random.Random(23)
    tried = 0
    while tried < 20:
        mask = rng.randrange(1, vars.full_mask + 1)
        m = SqfMonomial(mask)
        if m.mask in lat.witness:
            continue
        tried += 1
        for i in range(1, len(triangle_tail.gens) + 1):
            assert multigraded_betti(triangle_tail, i, m) == 0


def test_beta_zero_on_divisor_of_top_outside_lattice():
    # xz divides the top xyz but is not a join of generators; its strand
    # must be zero even though the homology of {empty face} is not
    I = mk("xy", "yz")
    xz = SqfMonomial.from_names(I.vars, ["x", "z"])
    lat = build_lattice(I)
    assert xz.mask not in lat.witness
    for i in range(1, 4):
        assert multigraded_betti(I, i, xz) == 0


def test_beta_at_one():
    I = mk("xy", "yz")
    one = SqfMonomial.one()
    assert multigraded_betti(I, 0, one) == 1
    assert multigraded_betti(I, 1, one) == 0
    m = SqfMonomial.from_names(I.vars, ["x", "y"])
    assert multigraded_betti(I, 0, m) == 0


def test_negative_degree_raises(path3):
    with pytest.raises(OutOfRange):
        multigraded_betti(path3, -1, path3.top())


def test_graded_is_sum_of_multigraded(three_brooms_table):
    table = three_brooms_table
    sums: dict[tuple[int, int], int] = {}
    for (i, m), rank in table.multigraded.items():
        key = (i, m.degree)
        sums[key] = sums.get(key, 0) + rank
    assert sums == table.graded


def test_alternating_sum_vanishes(triangle_tail_table, three_brooms_table):
    for table in (triangle_tail_table, three_brooms_table):
        total = sum(
            (-1) ** i * rank for (i, _), rank in table.graded.items()
        )
        assert total == 0


def test_t_max_out_of_range(triangle_tail_table):
    with pytest.raises(OutOfRange):
        t_max(triangle_tail_table, 0)
    with pytest.raises(OutOfRange):
        t_max(triangle_tail_table, 5)


def test_table_matches_direct_homology(path3):
    table = betti_table(path3)
    lat = build_lattice(path3)
    for m in lat.elements:
        if m.is_one:
            continue
        faces = taylor_faces_below(path3, m)
        ranks = reduced_homology_ranks(faces)
        for i in range(1, len(path3.gens) + 1):
            expect = ranks.h(i - 2)
            assert table.multigraded.get((i, m), 0) == expect


def test_restriction_identity_on_lattice_elements():
    rng = random.Random(29)
    for _ in range(15):
        I = random_sqf_ideal(rng, max_vars=6, max_gens=5)
        lat = build_lattice(I)
        for m in lat.elements:
            if m.is_one:
                continue
            sub = induced_subideal(I, m)
            assert sub
            m_sub = restrict_monomial(m, I.vars, sub.vars)
            for i in range(1, len(I.gens) + 1):
                assert multigraded_betti(I, i, m) == multigraded_betti(
                    sub, i, m_sub
                )


def test_field_agreement_small(path3, four_triangles):
    for I in (path3, four_triangles):
        a = betti_table(I, field=RATIONALS)
        b = betti_table(I, field=GF_32003)
        assert a.multigraded == b.multigraded


def test_zero_ranks_not_stored(triangle_tail_table):
    assert all(rank > 0 for rank in triangle_tail_table.multigraded.values())
    assert all(rank > 0 for rank in triangle_tail_table.graded.values())


def test_face_cap_error_carries_finished_entries(star_cluster, star_cluster_table):
    with pytest.raises(SizeLimitExceeded) as e:
        betti_table(star_cluster, face_cap=5)
    partial = e.value.partial
    assert any(i >= 1 for i, _ in partial)
    assert partial.items() <= star_cluster_table.multigraded.items()
    assert len(partial) < len(star_cluster_table.multigraded)


def test_face_cap_counts_collapsed_faces(three_brooms, three_brooms_table):
    # every three_brooms complex collapses to at most 5 faces, although its
    # Taylor complexes exceed that cap (test_homology.py::test_face_cap)
    table = betti_table(three_brooms, face_cap=5)
    assert table.multigraded == three_brooms_table.multigraded



def cycle(n):
    return parse_ideal_text("\n".join(f"x{i} x{(i + 1) % n}" for i in range(n)))


def test_face_cap_counts_stanley_reisner_faces():
    # the 12-cycle's top is finished on its Stanley-Reisner complex of 322
    # faces, and no other multidegree grows any face
    I = cycle(12)
    table = betti_table(I, face_cap=322)
    assert table.multigraded == betti_table(I).multigraded
    assert table.multigraded[(8, I.top())] == 2
    with pytest.raises(SizeLimitExceeded) as e:
        betti_table(I, face_cap=321)
    assert e.value.partial == {
        (i, m): rank for (i, m), rank in table.multigraded.items() if m != I.top()
    }


def load_oracle():
    """The benchmark's package-independent output checks."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_edge_ideal_of_a_12_vertex_graph():
    # 18 of the 66 vertex pairs: remainders of up to 12 rows take the
    # Stanley-Reisner path, and the Moebius identity checks every entry
    edges = random.Random(0).sample(list(combinations(range(12), 2)), 18)
    gens = [f"x{a} x{b}" for a, b in edges]
    I = parse_ideal_text("\n".join(gens))
    table = betti_table(I)
    assert table.totals() == (1, 18, 81, 202, 300, 275, 161, 59, 12, 1)
    oracle = load_oracle()
    frame = oracle.Frame(gens)
    translate = frame.translator(I.vars.names)
    multigraded = {(i, translate(m.mask)): r for (i, m), r in table.multigraded.items()}
    assert oracle.check_mobius(frame, multigraded) is None

# Stanley-Reisner ideal of the 6-vertex real projective plane
RP2_6 = (
    "x1 x2 x3", "x1 x2 x5", "x1 x3 x4", "x1 x4 x6", "x1 x5 x6",
    "x2 x3 x6", "x2 x4 x5", "x2 x4 x6", "x3 x4 x5", "x3 x5 x6",
)


@pytest.mark.parametrize(
    "p, totals",
    [(None, (1, 10, 15, 6)), (2, (1, 10, 15, 7, 1)), (3, (1, 10, 15, 6))],
)
def test_rp2_6_totals_depend_on_characteristic(p, totals):
    # the 2-torsion of RP^2 adds beta_(3,6) = beta_(4,6) = 1 over GF(2) only;
    # over QQ its boundary ranks need pivots that are not +-1
    table = betti_table(parse_ideal_text("\n".join(RP2_6)), FieldSpec(p))
    assert table.totals() == totals
    # one entry of the writer carries both degrees of the top over GF(2)
    assert_stdlib_json(table)


def assert_stdlib_json(table):
    expected = json.dumps(betti_dict(table), indent=2, sort_keys=True)
    assert format_betti_json(table) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([RATIONALS, FieldSpec(2)]))
def test_json_writer_matches_stdlib_on_random_ideals(seed, field):
    I = random_sqf_ideal(random.Random(seed), max_vars=7, max_gens=7)
    assert_stdlib_json(betti_table(I, field))


def polarized_names(n: int, rng: random.Random) -> list[str]:
    """n distinct names of mixed length, polarized ones such as x(1) among them."""
    names = []
    for base in ("x", "yy", "z_3", "w", "long_name"):
        names += [base] + [f"{base}({k})" for k in range(1, 16)]
    return rng.sample(names, n)


def random_named_ideal(rng: random.Random, n: int, wide: bool = False):
    """A random ideal over n polarized names, every name in some generator."""
    while True:
        vars = VariableTable(polarized_names(n, rng), wide=wide)
        gens = [
            SqfMonomial.from_indices(rng.sample(range(n), rng.randint(1, min(n, 5))))
            for _ in range(rng.randint(1, 7))
        ]
        covered = 0
        for g in gens:
            covered |= g.mask
        # the names left out join random generators, and all of them the last
        extra = [vars.full_mask & ~covered & rng.getrandbits(n) for _ in gens]
        extra[-1] |= vars.full_mask & ~covered
        gens = [SqfMonomial(g.mask | e) for g, e in zip(gens, extra)]
        try:
            return normalize_generators(gens, vars)
        except SqfBettiError:
            continue


@pytest.mark.parametrize("field", [RATIONALS, FieldSpec(2)], ids=["QQ", "GF2"])
@pytest.mark.parametrize("n", range(1, 21))
def test_json_writer_matches_stdlib_beyond_seven_variables(n, field):
    # 1 to 20 variables, so the last 4-bit digit of the names holds each of
    # 1 to 4 of them, and masks that skip whole digits
    rng = random.Random(n)
    for _ in range(3):
        assert_stdlib_json(betti_table(random_named_ideal(rng, n), field))


def test_json_writer_matches_stdlib_on_a_wide_table():
    rng = random.Random(70)
    I = random_named_ideal(rng, 70, wide=True)
    assert len(I.vars) == 70
    assert_stdlib_json(betti_table(I))
    # generators on overlapping runs of names: some multidegrees leave
    # their low 16, 32 or 48 bits empty
    vars = VariableTable(polarized_names(70, rng), wide=True)
    spans = [(0, 16), (14, 30), (28, 44), (42, 56), (54, 70)]
    runs = [SqfMonomial(((1 << b) - 1) & ~((1 << a) - 1)) for a, b in spans]
    assert_stdlib_json(betti_table(normalize_generators(runs, vars)))


@pytest.mark.parametrize("field", [RATIONALS, FieldSpec(2)], ids=["QQ", "GF2"])
def test_tables_are_read_in_their_insertion_order(field):
    # betti_table inserts the entries in lattice order, the table's one
    # order: nonzero(i) and the JSON writer read it without sorting
    inputs = betti_golden.load_inputs()
    for gens in [*inputs.FIXED.values(), *inputs.random_ideals(1)]:
        I = parse_ideal_text("\n".join(gens))
        table = betti_table(I, field)
        for i in range(table.pd + 1):
            keys = [m for d, m in table.multigraded if d == i]
            ordered = sorted(keys, key=SqfMonomial.sort_key)
            assert table.nonzero(i) == ordered, (gens, i)
            assert keys == ordered, (gens, i)
        assert_stdlib_json(table)


def test_json_writer_sorts_t_keys_as_strings():
    # 11 variables, each a generator: pd 11 and a lattice of 2 048 elements
    table = betti_table(parse_ideal_text("\n".join("abcdefghijk")))
    assert table.pd == 11
    assert len(table.multigraded) == 2048
    assert_stdlib_json(table)
    text = format_betti_json(table)
    assert text.index('"10": 10') < text.index('"11": 11') < text.index('"2": 2')


def test_tables_match_the_pinned_digests():
    # every table of the benchmark's seed-1 random ideals over QQ, GF(2)
    # and GF(3), entry for entry and in insertion order (tests/betti_golden.py)
    pinned = json.loads(betti_golden.GOLDEN.read_text())
    assert pinned["seed"] == betti_golden.SEED
    assert betti_golden.differences(pinned["tables"], betti_golden.digests()) == []


# ---------------------------------------------------------------------------
# tables of split ideals: the product of the blocks' tables


def disjoint_sum(ideals, rng):
    """The sum of the ideals in disjoint variables, shuffled together.

    Each ideal keeps its generators on fresh variables, and the
    variables of all of them are numbered in a shuffled order, so the
    blocks interleave in the canonical order of monomials.
    """
    names = [(k, x) for k, I in enumerate(ideals) for x in range(len(I.vars.names))]
    rng.shuffle(names)
    index = {name: pos for pos, name in enumerate(names)}
    gens = [
        SqfMonomial.from_indices([index[(k, x)] for x in g.indices()])
        for k, I in enumerate(ideals)
        for g in I.gens
    ]
    return normalize_generators(gens, VariableTable([f"v{pos}" for pos in range(len(names))]))


def lattice_walk(I, field):
    """multigraded, graded and t from the homology below every element of
    the whole lcm lattice, in lattice order and increasing d: an oracle
    that knows nothing of blocks or of the product rule."""
    multigraded, graded, t = {}, {}, {}
    for m in build_lattice(I).elements:
        homology = {-2: 1} if m.is_one else homology_below(I, m, field)
        j = m.degree
        for d in sorted(homology):
            i = d + 2
            multigraded[(i, m)] = homology[d]
            graded[(i, j)] = graded.get((i, j), 0) + homology[d]
            if i:
                t[i] = j
    return multigraded, graded, t


def assert_is_the_lattice_walk(I, field):
    table = betti_table(I, field)
    multigraded, graded, t = lattice_walk(I, field)
    assert list(table.multigraded.items()) == list(multigraded.items())
    assert list(table.graded.items()) == list(graded.items())
    assert list(table.t.items()) == list(t.items())
    assert table.pd == max(t, default=0)
    return table


def split_sums():
    """Pairs and triples of the benchmark's fixed ideals and of its random
    ideals at seeds 1 to 3, whose product lattices have at most 3 000
    elements: every such pair or triple of the fixed ideals, and 40 drawn
    from the first 100 random ideals of each seed."""
    inputs = betti_golden.load_inputs()
    fixed = [
        parse_ideal_text("\n".join(gens))
        for name, gens in inputs.FIXED.items()
        if name not in ("stars16", "cycle12")
    ]
    small = [
        parse_ideal_text("\n".join(gens))
        for seed in (1, 2, 3)
        for gens in inputs.random_ideals(seed)[:100]
    ]
    size = {id(I): len(build_lattice(I)) for I in fixed + small}

    def fits(parts):
        product = 1
        for I in parts:
            product *= size[id(I)]
        return product <= 3000

    rng = random.Random(0)
    sums = [
        disjoint_sum(parts, rng)
        for k in (2, 3)
        for parts in combinations(fixed, k)
        if fits(parts)
    ]
    drawn = 0
    while drawn < 40:
        parts = rng.sample(fixed + small, 2 + drawn % 2)
        if fits(parts):
            sums.append(disjoint_sum(parts, rng))
            drawn += 1
    return sums


SPLIT_SUMS = split_sums()
FIELDS = [RATIONALS, FieldSpec(2), FieldSpec(3)]


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF2", "GF3"])
def test_split_tables_are_the_lattice_walk(field):
    # the product of the blocks' tables against the homology of every
    # element of the product lattice, entry for entry and in insertion order
    for I in SPLIT_SUMS:
        assert_is_the_lattice_walk(I, field)


def test_split_tables_convolve_several_degrees(triangle_tail):
    # over GF(2) the top of rp2_6 has beta_3 = beta_4 = 1 and that of
    # triangle_tail beta_4 = 2: their product carries two degrees, and
    # rp2_6 + rp2_6 sums two terms at beta_7 of the top, 1*1 + 1*1
    rp2 = parse_ideal_text("\n".join(RP2_6))
    rng = random.Random(0)
    GF2 = FieldSpec(2)
    table = assert_is_the_lattice_walk(disjoint_sum([rp2, triangle_tail], rng), GF2)
    top = table.ideal.top()
    assert [(i, r) for (i, m), r in table.multigraded.items() if m == top] == [(7, 2), (8, 2)]
    assert_stdlib_json(table)
    table = assert_is_the_lattice_walk(disjoint_sum([rp2, rp2], rng), GF2)
    top = table.ideal.top()
    assert [(i, r) for (i, m), r in table.multigraded.items() if m == top] == [
        (6, 1),
        (7, 2),
        (8, 1),
    ]
    assert_stdlib_json(table)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([RATIONALS, FieldSpec(2)]))
def test_json_writer_matches_stdlib_on_split_ideals(seed, field):
    # the sum of two random ideals in disjoint variables, whose table is
    # the product of its blocks' (_product), written from its entries
    from sqfbetti.betti import _blocks

    rng = random.Random(seed)
    I = disjoint_sum([random_sqf_ideal(rng, max_vars=5, max_gens=5) for _ in range(2)], rng)
    assert len(_blocks([g.mask for g in I.gens])) >= 2
    assert_stdlib_json(betti_table(I, field))


def test_blocks_share_no_variable():
    # c d joins the block of a b only through the later b c, in a second
    # pass; e f stays apart.  Blocks keep their generators in order and
    # come in the order of their first generators
    from sqfbetti.betti import _blocks

    a, b, c, d, e, f = (1 << k for k in range(6))
    assert _blocks([a | b, c | d, b | c]) == [[a | b, c | d, b | c]]
    assert _blocks([a | b, e | f, c | d, b | c]) == [[a | b, c | d, b | c], [e | f]]
    assert _blocks([e | f, a | b, c | d]) == [[e | f], [a | b], [c | d]]


def test_convolution_comes_in_increasing_degree():
    # a factor whose degrees skip one: 0 + 2 comes before 1 + 0
    from sqfbetti.betti import _convolve

    assert _convolve(((0, 1), (1, 2)), ((0, 3), (2, 5))) == ((0, 3), (1, 6), (2, 5), (3, 10))
    assert _convolve(((3, 1), (4, 1)), ((3, 1), (4, 1))) == ((6, 1), (7, 2), (8, 1))


def test_split_table_lattice_cap_counts_blocks_and_product(three_brooms, three_brooms_table):
    # blocks of 45 and 4 lattice elements with 37 and 4 nonzero
    # multidegrees: the product has 148, while the product lattice has 180
    full = list(three_brooms_table.multigraded.items())
    assert len({m for _, m in three_brooms_table.multigraded}) == 148
    assert list(betti_table(three_brooms, lattice_cap=148).multigraded.items()) == full
    for cap in (147, 50):
        with pytest.raises(SizeLimitExceeded, match="148 multidegrees") as e:
            betti_table(three_brooms, lattice_cap=cap)
        partial = e.value.partial
        # every entry of the two blocks, each at the other's bottom
        assert len(partial) == 37 + 4 - 1
        assert partial.items() <= three_brooms_table.multigraded.items()
        assert list(partial) == [key for key, _ in full if key in partial]
    with pytest.raises(SizeLimitExceeded, match="lcm lattice exceeds cap 44") as e:
        betti_table(three_brooms, lattice_cap=44)
    assert e.value.partial == {(0, SqfMonomial()): 1}


def test_lattice_cap_of_a_connected_table_carries_the_bottom(star_cluster):
    with pytest.raises(SizeLimitExceeded, match="lcm lattice exceeds cap 2") as e:
        betti_table(star_cluster, lattice_cap=2)
    assert e.value.partial == {(0, SqfMonomial()): 1}


# path3 on the first variables, so its block comes first, and star_cluster
PATH3_STAR = mk(
    "xy", "yz", "zu", "abc", "bcd", "cdf", "def", "eg", "fg", "gh", "hi", "gi", "fi", "gk", "gl"
)


def test_caps_of_a_split_table_carry_the_finished_blocks(star_cluster_table):
    full = betti_table(PATH3_STAR)
    path3 = {key: r for key, r in full.multigraded.items() if not key[1].mask & ~0b1111}
    assert len(path3) == 6
    with pytest.raises(SizeLimitExceeded, match="lcm lattice exceeds cap 100") as e:
        betti_table(PATH3_STAR, lattice_cap=100)
    assert e.value.partial == path3
    assert list(e.value.partial) == list(path3)
    # star_cluster's third remainder grows 6 faces
    with pytest.raises(SizeLimitExceeded, match="face count exceeds cap 5") as e:
        betti_table(PATH3_STAR, face_cap=5)
    partial = e.value.partial
    assert path3.items() < partial.items() <= full.multigraded.items()
    assert list(partial) == [key for key in full.multigraded if key in partial]
    assert len(partial) - len(path3) < len(star_cluster_table.multigraded) - 1
