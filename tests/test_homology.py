import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqfbetti import (
    GF_32003,
    RATIONALS,
    FieldSpec,
    SqfMonomial,
    VariableTable,
    betti_table,
    build_lattice,
    matrix_rank,
    normalize_generators,
    parse_ideal_text,
    reduced_homology_ranks,
    taylor_faces_below,
)
from sqfbetti.errors import ParseError, SizeLimitExceeded
from sqfbetti import homology
from sqfbetti.homology import homology_below

from betti_golden import load_inputs
from conftest import mk, random_sqf_ideal
from dense import boundary_matrix
from test_betti import RP2_6, cycle


def closure(masks):
    """Downward closure of a set of faces, as layers sorted by mask."""
    out = set()
    for m in masks:
        sub = m
        while True:
            out.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & m
    layers = [[] for _ in range(max(map(int.bit_count, out)) + 1)]
    for f in sorted(out):
        layers[f.bit_count()].append(f)
    return layers


def faces_of(layers):
    """Every face of every layer, as one set of masks."""
    return {f for layer in layers for f in layer}


def is_downward_closed(layers):
    """Every face minus any one vertex is again a face, one layer down."""
    for k, layer in enumerate(layers):
        for f in layer:
            rest = f
            while rest:
                low = rest & -rest
                if f ^ low not in layers[k - 1]:
                    return False
                rest ^= low
    return True


def test_field_spec_parsing():
    assert FieldSpec.parse("q") == RATIONALS
    assert FieldSpec.parse("p:32003") == GF_32003
    assert RATIONALS.label == "QQ"
    assert GF_32003.label == "GF(32003)"
    for bad in ("r", "p:", "p:15", "p:abc", "32003"):
        with pytest.raises(ParseError):
            FieldSpec.parse(bad)
    for bad in (2.5, 3.0, True):
        with pytest.raises(ParseError):
            FieldSpec(bad)


def test_void_versus_empty_face():
    void = []  # no faces at all, not even the empty one
    ranks = reduced_homology_ranks(void)
    assert ranks.face_counts == {}
    assert ranks.h(-1) == 0 and ranks.h(0) == 0

    point = [[0]]  # just the empty face
    ranks = reduced_homology_ranks(point)
    assert ranks.face_counts == {-1: 1}
    assert ranks.h(-1) == 1
    assert len(point) - 2 == -1  # its dimension


def test_contractible_simplex():
    # full 2-simplex on three vertices: all reduced homology vanishes
    faces = closure([0b111])
    ranks = reduced_homology_ranks(faces)
    assert ranks.face_counts == {-1: 1, 0: 3, 1: 3, 2: 1}
    for d in range(-1, 3):
        assert ranks.h(d) == 0


def test_circle():
    # boundary of a triangle: h_1 = 1, everything else 0
    faces = closure([0b011, 0b101, 0b110])
    ranks = reduced_homology_ranks(faces)
    assert ranks.h(1) == 1
    assert ranks.h(0) == 0
    assert ranks.h(-1) == 0


def test_two_points():
    faces = closure([0b01, 0b10])
    ranks = reduced_homology_ranks(faces)
    assert ranks.h(0) == 1  # two components, reduced
    assert ranks.h(-1) == 0


def test_sphere_octahedron():
    # boundary of the 3-simplex: a 2-sphere, h_2 = 1
    full = 0b1111
    faces = closure([full ^ (1 << k) for k in range(4)])
    ranks = reduced_homology_ranks(faces)
    assert ranks.h(2) == 1
    assert ranks.h(1) == 0
    assert ranks.h(0) == 0


def test_taylor_faces_below_excludes_covers(path3):
    m = path3.top()  # xyzu
    faces = faces_of(taylor_faces_below(path3, m))
    # {xy, zu} has lcm xyzu = m, so it is not below m
    assert (0b001 | 0b100) not in faces
    assert 0 in faces
    for f in faces:
        lcm = 0
        for i in range(len(path3.gens)):
            if f >> i & 1:
                lcm |= path3.gens[i].mask
        assert lcm != m.mask
        assert SqfMonomial(lcm).divides(m)


def test_taylor_faces_below_ignores_non_dividing_gens(triangle_tail):
    vars = triangle_tail.vars
    m = SqfMonomial.from_names(vars, ["x", "y", "z"])
    faces = faces_of(taylor_faces_below(triangle_tail, m))
    dividing = {i for i, g in enumerate(triangle_tail.gens) if g.divides(m)}
    for f in faces:
        used = {i for i in range(len(triangle_tail.gens)) if f >> i & 1}
        assert used <= dividing


def test_taylor_faces_below_one_is_void(path3):
    # even the empty face has lcm 1, which is not strictly below m = 1
    faces = taylor_faces_below(path3, SqfMonomial.one())
    assert faces == []


def test_face_cap(three_brooms):
    with pytest.raises(SizeLimitExceeded):
        taylor_faces_below(three_brooms, three_brooms.top(), cap=5)


def test_boundary_squared_is_zero_on_randoms():
    rng = random.Random(11)
    for _ in range(30):
        I = random_sqf_ideal(rng, max_vars=6, max_gens=5)
        lat_top = I.top()
        layers = taylor_faces_below(I, lat_top)
        for d in range(1, len(layers) - 1):
            A = boundary_matrix(layers[d - 1], layers[d])
            B = boundary_matrix(layers[d], layers[d + 1])
            if A.size and B.size:
                assert not (A @ B).any()


def test_euler_characteristic_identity():
    # sum of (-1)^d c_d equals sum of (-1)^d h_d, including d = -1
    rng = random.Random(13)
    for _ in range(40):
        I = random_sqf_ideal(rng, max_vars=6, max_gens=5)
        m = rng.choice([I.top(), rng.choice(I.gens).lcm(rng.choice(I.gens))])
        faces = taylor_faces_below(I, m)
        ranks = reduced_homology_ranks(faces)
        chi_faces = sum((-1) ** d * c for d, c in ranks.face_counts.items())
        chi_hom = sum((-1) ** d * h for d, h in ranks.homology_ranks.items())
        assert chi_faces == chi_hom


def test_downward_closed(path3):
    faces = taylor_faces_below(path3, path3.top())
    assert is_downward_closed(faces)
    assert not is_downward_closed([[0], [], [0b11]])


def test_matrix_rank_small_cases():
    assert matrix_rank(np.zeros((0, 0), dtype=np.int64).tolist()) == 0
    assert matrix_rank(np.zeros((3, 2), dtype=np.int64).tolist()) == 0
    assert matrix_rank(np.eye(4, dtype=np.int64).tolist()) == 4
    M = np.array([[1, 2], [2, 4]], dtype=np.int64)
    assert matrix_rank(M.tolist()) == 1
    assert matrix_rank([[1, 2], [3, 4]]) == 2


def test_matrix_rank_exact_where_floats_fail():
    # a Hilbert-like integer matrix with huge condition number
    n = 10
    M = [[1 * (i + j + 1) ** 3 + (1 if i == j else 0) for j in range(n)] for i in range(n)]
    r_qq = matrix_rank(M, RATIONALS)
    r_gf = matrix_rank(M, GF_32003)
    assert r_qq == n
    assert r_gf <= r_qq


def test_matrix_rank_bigint_fallback():
    # products of these entries leave the int64 range; the elimination
    # works on Python ints throughout, so nothing may overflow or round
    big = 2**40
    M = [[big, 0], [0, big]]
    assert matrix_rank(M, RATIONALS) == 2
    M2 = [[big, big], [big, big]]
    assert matrix_rank(M2, RATIONALS) == 1


def test_rank_agreement_random_matrices():
    rng = random.Random(17)
    for _ in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        M = np.array(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)],
            dtype=np.int64,
        )
        r_qq = matrix_rank(M.tolist(), RATIONALS)
        r_np = np.linalg.matrix_rank(M.astype(float))
        assert r_qq == int(r_np)
        assert matrix_rank(M.tolist(), GF_32003) == r_qq  # entries tiny, no char-p drop


@settings(max_examples=50)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=1, max_size=5), min_size=1, max_size=5))
def test_rank_bounds(rows):
    width = len(rows[0])
    rows = [r[:width] + [0] * (width - len(r)) for r in rows]
    r = matrix_rank(rows, RATIONALS)
    assert 0 <= r <= min(len(rows), width)


def test_homology_field_agreement_on_taylor_complexes():
    rng = random.Random(19)
    for _ in range(20):
        I = random_sqf_ideal(rng, max_vars=6, max_gens=5)
        faces = taylor_faces_below(I, I.top())
        a = reduced_homology_ranks(faces, RATIONALS)
        b = reduced_homology_ranks(faces, GF_32003)
        assert a.homology_ranks == b.homology_ranks


def rank_oracle(rows, p=None):
    """Textbook Gauss elimination over Fraction (p None) or GF(p)."""
    A = [[Fraction(x) if p is None else x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(A[0]) if A else 0):
        pivot = next((i for i in range(rank, len(A)) if A[i][c]), None)
        if pivot is None:
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        inv = 1 / A[rank][c] if p is None else pow(A[rank][c], -1, p)
        for i in range(rank + 1, len(A)):
            f = A[i][c] * inv
            A[i] = [x - f * y for x, y in zip(A[i], A[rank])]
            if p is not None:
                A[i] = [x % p for x in A[i]]
        rank += 1
    return rank


ORACLE_FIELDS = [(RATIONALS, None), (FieldSpec(2), 2), (FieldSpec(3), 3), (GF_32003, 32003)]


@st.composite
def int_matrices(draw):
    # no unit entry at all in the second alphabet: only cross-multiplication
    # pivots over QQ, and ranks that drop mod 2 and mod 3
    values = draw(st.sampled_from([tuple(range(-4, 5)), (0, 2, -2, 3, -3, 6, -6)]))
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    return [[draw(st.sampled_from(values)) for _ in range(ncols)] for _ in range(nrows)]


@settings(max_examples=300, deadline=None)
@given(int_matrices())
@example([[2, 0], [0, 3]])  # rank 2 over QQ and GF(32003), 1 mod 2 and mod 3
@example([[2, 3], [6, 9], [3, 2]])
@example([[6, -6, 2], [3, 3, -2], [0, 6, 6]])
def test_matrix_rank_matches_fraction_oracle(rows):
    for field, p in ORACLE_FIELDS:
        expect = rank_oracle(rows, p)
        assert matrix_rank(rows, field) == expect


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_boundary_ranks_match_fraction_oracle(seed):
    rng = random.Random(seed)
    I = random_sqf_ideal(rng, max_vars=6, max_gens=6)
    layers = taylor_faces_below(I, I.top())
    for field, p in ORACLE_FIELDS[:3]:
        ranks = reduced_homology_ranks(layers, field)
        for d in range(len(layers) - 1):
            dense = boundary_matrix(layers[d], layers[d + 1])
            assert ranks.r(d) == rank_oracle(dense.tolist(), p)


# the 6-vertex real projective plane: its facets are the ten triples of
# {1..6} that are not minimal nonfaces of RP2_6 in test_betti.py
RP2_6_FACETS = tuple(
    sum(1 << (v - 1) for v in triple)
    for triple in (
        (1, 2, 4), (1, 2, 6), (1, 3, 5), (1, 3, 6), (1, 4, 5),
        (2, 3, 4), (2, 3, 5), (2, 5, 6), (3, 4, 6), (4, 5, 6),
    )
)


@st.composite
def facet_closures(draw):
    # downward closures of random facet sets on at most 7 vertices: mixed
    # dimensions and several components, beyond the Taylor complexes above
    n = draw(st.integers(1, 7))
    facets = draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=8))
    return closure(facets)


@settings(max_examples=150, deadline=None)
@given(facet_closures())
@example(closure(RP2_6_FACETS))
@example(closure([0b1111111]))  # the full 6-simplex: acyclic, most columns cleared
def test_cleared_ranks_match_dense_oracle(layers):
    for field, p in ORACLE_FIELDS[:3]:
        ranks = reduced_homology_ranks(layers, field)
        for d in range(len(layers) - 1):
            dense = boundary_matrix(layers[d], layers[d + 1])
            assert ranks.r(d) == rank_oracle(dense.tolist(), p)


@pytest.mark.parametrize("field, h", [(RATIONALS, 0), (FieldSpec(2), 1), (FieldSpec(3), 0)])
def test_rp2_6_homology_depends_on_characteristic(field, h):
    layers = closure(RP2_6_FACETS)
    assert len(layers) - 2 == 2 and sum(map(len, layers)) == 1 + 6 + 15 + 10
    ranks = reduced_homology_ranks(layers, field)
    assert [ranks.h(d) for d in range(-1, 3)] == [0, 0, h, h]


# the collapsed model of homology_below against the Taylor complex itself

COLLAPSE_FIELDS = [RATIONALS, FieldSpec(2), FieldSpec(3)]


def taylor_homology(I, m, field):
    ranks = reduced_homology_ranks(taylor_faces_below(I, m), field)
    return {d: h for d, h in ranks.homology_ranks.items() if h}


def rows_below(I, m):
    """The uncollapsed rows r_g = m minus g of the generators g | m."""
    return [m.mask & ~g.mask for g in I.gens if g.divides(m)]


def dual_homology(rows, p, cap=2**20):
    """homology._dual_homology on rows, with U their union."""
    used = 0
    for r in rows:
        used |= r
    return homology._dual_homology(rows, used, p, cap)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(0)  # has two variables with equal columns below some m
def test_collapse_matches_taylor_complex(seed):
    # homology_below, and the Stanley-Reisner path on the uncollapsed
    # rows, against the Taylor complex itself
    I = random_sqf_ideal(random.Random(seed), max_vars=10, max_gens=10)
    for m in build_lattice(I).elements:
        rows = rows_below(I, m)
        for field in COLLAPSE_FIELDS:
            expect = taylor_homology(I, m, field)
            assert homology_below(I, m, field) == expect
            if len(rows) >= 2:
                assert dual_homology(rows, field.p) == expect


def reference_collapse(rows):
    """The collapse as it was before its one-row exit: the oracle.

    It builds the peeled and kept rows in two passes, and a single kept
    row still goes through rule B and the loop test.
    """
    shift = 0
    while len(rows) > 1:
        every, but_one = -1, 0
        for r in rows:
            but_one = but_one & r | every & ~r
            every &= r
        if every:
            return [every], shift
        if but_one:
            peeled = [r for r in rows if but_one & ~r]
            kept = [r for r in rows if not but_one & ~r] or [peeled.pop()]
            ra = -1
            for r in peeled:
                if not r & ra:
                    return [ra], shift
                ra &= r
                shift += 1
            rows = [rb & ra for rb in kept]
        else:
            holders = {}
            for a, ra in enumerate(rows):
                while ra:
                    x = ra & -ra
                    ra ^= x
                    holders[x] = holders.get(x, 0) | 1 << a
            owner = {}
            for x, c in holders.items():
                owner.setdefault(c, x)
            kept = homology._maximal(owner)
            if len(kept) == len(holders):
                break
            keep = 0
            for c in kept:
                keep |= owner[c]
            rows = [ra & keep for ra in rows]
        rows = homology._maximal(rows)
    return rows, shift


def assert_collapse_matches_reference(I):
    for m in build_lattice(I).elements:
        rows = rows_below(I, m)
        assert homology._collapse(list(rows)) == reference_collapse(list(rows)), m


def test_collapse_matches_the_reference_on_the_benchmark_ideals():
    for gens in load_inputs().FIXED.values():
        assert_collapse_matches_reference(parse_ideal_text("\n".join(gens)))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_collapse_matches_the_reference_on_randoms(seed):
    assert_collapse_matches_reference(
        random_sqf_ideal(random.Random(seed), max_vars=10, max_gens=10)
    )


def boolean_intervals(I):
    """The elements m != 1 whose generators below are exactly its witness."""
    lat = build_lattice(I)
    for m in lat.elements[1:]:
        if sum(1 for g in I.gens if g.divides(m)) == len(lat.witness[m.mask]):
            yield m, len(lat.witness[m.mask])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_boolean_intervals_are_spheres(seed):
    # the shortcut of betti_table: k generators below m, each holding a
    # private variable, leave the proper subsets of k vertices below m
    I = random_sqf_ideal(random.Random(seed), max_vars=9, max_gens=9)
    table = betti_table(I)
    for m, k in boolean_intervals(I):
        for field in COLLAPSE_FIELDS:
            assert homology_below(I, m, field) == {k - 2: 1}
            assert taylor_homology(I, m, field) == {k - 2: 1}
        assert [i for i, m2 in table.multigraded if m2 == m] == [k]


@pytest.fixture
def eliminated(monkeypatch):
    """What reaches a face grower: (rows as sorted masks, path, faces).

    The path is "taylor" for _grow_faces and "dual" for the
    Stanley-Reisner grower; a remainder read as a graph is recorded as
    "graph", with 0 faces.  taylor_faces_below grows its faces in
    _grow_faces too, so a test reads this before it calls the oracle.
    """
    calls = []
    grow, grow_dual, graph = homology._grow_faces, homology._grow_dual, homology._graph_homology

    def recording(rows, cap):
        layers = grow(rows, cap)
        calls.append((tuple(sorted(r for _, r in rows)), "taylor", sum(map(len, layers))))
        return layers

    def recording_dual(rows, used, cap):
        layers = grow_dual(rows, used, cap)
        calls.append((tuple(sorted(rows)), "dual", sum(map(len, layers))))
        return layers

    def recording_graph(rows):
        found = graph(rows)
        if found is not None:
            calls.append((tuple(sorted(rows)), "graph", 0))
        return found

    monkeypatch.setattr(homology, "_grow_faces", recording)
    monkeypatch.setattr(homology, "_grow_dual", recording_dual)
    monkeypatch.setattr(homology, "_graph_homology", recording_graph)
    return calls


def test_collapse_at_a_generator(three_brooms, eliminated):
    # only g divides m = g, and {g} reaches m: the complex is {empty face}
    for g in three_brooms.gens:
        assert homology_below(three_brooms, g) == {-1: 1}
    assert homology_below(three_brooms, SqfMonomial.one()) == {}
    assert eliminated == []


def test_collapse_of_a_cone(path3, eliminated):
    # below xyzu the faces form the path xy - yz - zu: rule C names both
    # end rows, and peeling one empties the other (test below)
    assert homology_below(path3, path3.top()) == {}
    assert eliminated == []


@pytest.mark.parametrize("k", range(1, 6))
def test_collapse_of_private_variables(k, eliminated):
    # k generators p_i * s: every proper subset stays below the top, the
    # boundary of a (k-1)-simplex.  p_i misses only row i, so rule C peels
    # all rows but the last in one pass, and that row is left empty
    I = parse_ideal_text("\n".join(f"p{i} s" for i in range(k)))
    for field in COLLAPSE_FIELDS:
        assert homology_below(I, I.top(), field) == {k - 2: 1}
    assert eliminated == []
    if k > 1:
        assert homology._collapse(rows_below(I, I.top())) == ([0], k - 1)


def ideal_of_rows(rows):
    """The ideal whose rows below its top are rows: g_a = U minus r_a.

    Every variable of U must miss some row, so that the generators
    cover it; rows must form an antichain, so that they stay minimal.
    """
    used = 0
    for r in rows:
        used |= r
    names = VariableTable([f"x{i}" for i in range(used.bit_length())])
    return normalize_generators([SqfMonomial(used & ~r) for r in rows], names)


def test_collapse_peels_every_named_row_in_one_pass(monkeypatch):
    # the four edges of a 4-cycle, each with three private variables
    # p_0, p_1, p_2, and three rows holding the cycle's variables and all
    # p_j but p_j: each p_j misses only its row, so one pass peels the
    # three and leaves the cycle, a circle, three degrees up
    cycle = [0b0011, 0b0110, 0b1100, 0b1001]
    private = 0b111 << 4
    rows = [e | private for e in cycle] + [0b1111 | private & ~(1 << 4 + j) for j in range(3)]
    seen = []
    maximal = homology._maximal

    def recording(masks):
        seen.append(sorted(masks))
        return maximal(masks)

    monkeypatch.setattr(homology, "_maximal", recording)
    left, shift = homology._collapse(rows)
    assert (sorted(left), shift) == (sorted(cycle), 3)
    assert seen[0] == sorted(cycle)  # B ran once, after all three peels
    I = ideal_of_rows(rows)
    assert sorted(rows_below(I, I.top())) == sorted(rows)
    for field in COLLAPSE_FIELDS:
        assert homology_below(I, I.top(), field) == {4: 1} == taylor_homology(I, I.top(), field)


def test_collapse_of_a_peeled_row_left_empty(path3):
    # the rows of path3's top, z u | x u | x y: x misses only the first row
    # and u only the last.  After the first is peeled the last is x y & z u
    # = 0, no vertex, and the middle row holds u: a point, so a cone
    rows = rows_below(path3, path3.top())
    assert rows == [0b1100, 0b1001, 0b0011]
    assert homology._collapse(list(rows)) == ([0b1100], 1)
    for field in COLLAPSE_FIELDS:
        assert homology_below(path3, path3.top(), field) == {}
        assert taylor_homology(path3, path3.top(), field) == {}


def test_collapse_of_a_variable_in_every_row(triangle_tail):
    # below xyzb, a multidegree outside the lattice, only the triangle's
    # edges divide, and b lies in every row: the full triangle, a cone
    m = SqfMonomial.from_names(triangle_tail.vars, "xyzb")
    b = SqfMonomial.from_names(triangle_tail.vars, "b").mask
    rows = rows_below(triangle_tail, m)
    assert len(rows) == 3 and all(r & b for r in rows)
    assert homology._collapse(rows) == ([b], 0)
    for field in COLLAPSE_FIELDS:
        assert homology_below(triangle_tail, m, field) == {}
        assert taylor_homology(triangle_tail, m, field) == {}


def test_rp2_6_is_not_collapsed(eliminated):
    # its minimal nonfaces are the ten triples that are not facets; no
    # rule fires on them, so the characteristic shows in the elimination.
    # Ten rows over six variables take the Stanley-Reisner path, whose
    # complex at the top is RP^2_6 itself: 1 + 6 + 15 + 10 faces
    nonfaces = [
        " ".join(f"x{v + 1}" for v in t)
        for t in combinations(range(6), 3)
        if sum(1 << v for v in t) not in RP2_6_FACETS
    ]
    I = parse_ideal_text("\n".join(nonfaces))
    rows = rows_below(I, I.top())
    assert homology._collapse(list(rows)) == (rows, 0)
    assert homology_below(I, I.top(), RATIONALS) == {}
    assert homology_below(I, I.top(), FieldSpec(2)) == {1: 1, 2: 1}
    assert homology_below(I, I.top(), FieldSpec(3)) == {}
    assert eliminated == [(tuple(sorted(rows)), "dual", 32)] * 3
    assert dual_homology(rows, 2, 32) == {1: 1, 2: 1}


def test_cycle12_eliminates_only_its_top(eliminated):
    I = cycle(12)
    reached = []
    for m in build_lattice(I).elements:
        rows, _ = homology._collapse(rows_below(I, m))
        if len(rows) > 1:
            reached.append((m, len(rows)))
        homology_below(I, m)
    assert reached == [(I.top(), 12)]
    # the top's Stanley-Reisner complex is the independence complex of
    # the cycle, with 322 faces against the 3774 Taylor faces of its rows
    rows = tuple(sorted(rows_below(I, I.top())))
    assert eliminated == [(rows, "dual", 322)]
    assert homology_below(I, I.top()) == {6: 2}
    assert dual_homology(rows, None, 322) == {6: 2}
    assert taylor_homology(I, I.top(), RATIONALS) == {6: 2}


@pytest.mark.parametrize("n", [8, 21])
def test_many_small_rows_stay_on_the_rows(n, eliminated):
    # generators x_U / (x_i x_(i+1)) around an n-cycle: at the top the
    # rows are the n edges, and no rule fires.  Their faces form the
    # cycle itself, 1 + n + n of them (bound 3n + 1), while D' holds
    # every non-face of the cycle, 2^n - 2n - 1 (bound 2^n).  No variable
    # lies in three rows, so the rows are read as the graph and grow none
    U = [f"x{i}" for i in range(n)]
    I = parse_ideal_text(
        "\n".join(" ".join(U[:i] + U[i + 2 :] if i < n - 1 else U[1:-1]) for i in range(n))
    )
    table = betti_table(I)
    rows = tuple(sorted(rows_below(I, I.top())))
    assert eliminated == [(rows, "graph", 0)]
    assert homology_below(I, I.top()) == {1: 1} == taylor_homology(I, I.top(), RATIONALS)
    assert table.multigraded[(3, I.top())] == 1


# the remainders the collapse leaves in whole tables, as sorted tuples
# of variable masks, with the path each takes and the faces it grows,
# which are what face_cap counts; a remainder with no variable in three
# rows is read as a graph and grows none.  star_cluster leaves three
# remainders
P, Q, R = (
    ((16, 64, 256), "graph", 0),
    ((64, 128, 256), "graph", 0),
    ((80, 144, 192, 272, 384), "dual", 6),
)
# edge ideal of a random graph on 10 vertices, as in perfbench/inputs.py
GRAPH10 = (
    "v0 v1", "v0 v2", "v0 v7", "v1 v7", "v2 v3", "v2 v6",
    "v3 v4", "v3 v7", "v3 v8", "v4 v9", "v5 v9", "v8 v9",
)
# graph10 leaves the most remainders of the benchmark's ideals, seven distinct
A, B, C, D, E, F, G = (
    ((1, 2, 8), "graph", 0),
    ((5, 9, 20, 24), "graph", 0),
    ((80, 144, 320, 384), "graph", 0),
    ((7, 11, 21, 22, 26, 28), "dual", 10),
    ((91, 155, 331, 395, 451, 465, 466, 472), "dual", 26),
    ((93, 157, 333, 397, 453, 457, 468, 472), "dual", 29),
    ((95, 159, 335, 399, 455, 459, 469, 470, 474, 476), "dual", 41),
)
REMAINDERS = {
    "star_cluster": [P, Q, R, P, Q, Q, P, Q, R, Q, R],
    "graph10": [A, B, C, D] + [A] * 8 + [C, B, D, C, E, A, F, B, B, G, D, D, B, D],
    "cycle10": [((255, 510, 639, 831, 927, 975, 999, 1011, 1017, 1020), "dual", 123)],
    "cycle12": [
        (
            (1023, 2046, 2559, 3327, 3711, 3903, 3999, 4047, 4071, 4083, 4089, 4092),
            "dual",
            322,
        )
    ],
    "three_brooms": [((1, 4, 16), "graph", 0)] * 4,
    "rp2_6": [
        ((3, 5, 10, 20, 24), "graph", 0),
        ((3, 6, 9, 36, 40), "graph", 0),
        ((5, 6, 17, 34, 48), "graph", 0),
        ((9, 10, 18, 33, 48), "graph", 0),
        ((12, 17, 20, 33, 40), "graph", 0),
        ((12, 18, 24, 34, 36), "graph", 0),
        ((13, 14, 19, 22, 25, 35, 37, 42, 52, 56), "dual", 32),
    ],
}
# betti_table walks each block of a split ideal on its own lattice, so
# it eliminates only the remainders of the blocks' own elements: the
# three other (1, 4, 16) of three_brooms sit at products with its
# 2-generator block, whose ranks come from the product rule
ELIMINATED = {**REMAINDERS, "three_brooms": [((1, 4, 16), "graph", 0)]}


@pytest.mark.parametrize("name", sorted(REMAINDERS))
def test_collapse_remainders_are_pinned(name, eliminated, star_cluster, three_brooms):
    I = {
        "star_cluster": star_cluster,
        "graph10": parse_ideal_text("\n".join(GRAPH10)),
        "cycle10": cycle(10),
        "cycle12": cycle(12),
        "three_brooms": three_brooms,
        "rp2_6": parse_ideal_text("\n".join(RP2_6)),
    }[name]
    remainders = []
    for m in build_lattice(I).elements:
        if not m.is_one:
            rows, _ = homology._collapse(rows_below(I, m))
            if len(rows) > 1:
                remainders.append(tuple(sorted(rows)))
    assert remainders == [rows for rows, _, _ in REMAINDERS[name]]
    betti_table(I)
    assert eliminated == ELIMINATED[name]


def graph_remainders(ideals):
    """Each remainder _collapse leaves with no variable in three rows."""
    for I in ideals:
        for m in build_lattice(I).elements[1:]:
            rows, _ = homology._collapse(rows_below(I, m))
            if len(rows) > 1 and homology._graph_homology(rows) is not None:
                yield rows


# graph remainders of inputs.FIXED and random_ideals(1..3), counted once
# per lattice element
GRAPH_REMAINDERS = 1250


def test_graph_remainders_match_finish():
    # the closed form against the face grower and elimination it replaces,
    # on every graph remainder of the benchmark's ideals and of its
    # random ideals at seeds 1 to 3
    inputs = load_inputs()
    ideals = [*inputs.FIXED.values()]
    for seed in (1, 2, 3):
        ideals += inputs.random_ideals(seed)
    count = 0
    for rows in graph_remainders(parse_ideal_text("\n".join(g)) for g in ideals):
        count += 1
        found = homology._graph_homology(rows)
        for field in COLLAPSE_FIELDS:
            assert found == homology._finish(rows, field.p, 2**20)
    assert count == GRAPH_REMAINDERS


def strip_leaves(n, edges):
    """The edges left once every edge at a vertex of degree 1 is dropped."""
    edges = set(edges)
    while True:
        degree = [0] * n
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        leaves = {e for e in edges if degree[e[0]] == 1 or degree[e[1]] == 1}
        if not leaves:
            return sorted(edges)
        edges -= leaves


def graph_rows(n, edges):
    """The rows of a simple graph on range(n), one per vertex.

    Each edge is a fresh variable held by its two rows, and each isolated
    row holds a private variable.
    """
    rows = [0] * n
    for x, (a, b) in enumerate(edges):
        rows[a] |= 1 << x
        rows[b] |= 1 << x
    private = len(edges)
    for a in range(n):
        if not rows[a]:
            rows[a] = 1 << private
            private += 1
    return rows


@st.composite
def graphs(draw):
    """A random simple graph on 3 to 9 vertices with no vertex of degree 1.

    Its edges at vertices of degree 1 are dropped until none is left, so
    that its rows form an antichain, as the rows of minimal generators do.
    """
    n = draw(st.integers(3, 9))
    pairs = list(combinations(range(n), 2))
    return n, strip_leaves(n, draw(st.lists(st.sampled_from(pairs), unique=True)))


def components(n, edges):
    """The number of connected components of a graph on range(n)."""
    root = list(range(n))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for a, b in edges:
        root[find(a)] = find(b)
    return len({find(a) for a in range(n)})


@settings(max_examples=200, deadline=None)
@given(graphs())
@example((3, []))  # three isolated rows: h_0 = 2
@example((6, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]))  # a pentagon and a point
@example((7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]))  # two triangles and a point
def test_graph_rows_match_taylor_homology(graph):
    # _rows_homology on the rows of a graph, after its collapse, and the
    # closed form on the graph itself, against the Taylor complex of the
    # ideal whose rows below its top are these rows
    n, edges = graph
    rows = graph_rows(n, edges)
    c = components(n, edges)
    expect = {d: h for d, h in ((0, c - 1), (1, len(edges) - n + c)) if h}
    I = ideal_of_rows(rows)
    assert sorted(rows_below(I, I.top())) == sorted(rows)
    assert homology._graph_homology(rows) == expect
    for field in COLLAPSE_FIELDS:
        assert homology._rows_homology(list(rows), field.p, 2**20) == expect
        assert taylor_homology(I, I.top(), field) == expect
