import gc
import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from sqfbetti import (
    Cover,
    MonomialIdeal,
    SqfMonomial,
    VariableTable,
    WellOrderedCover,
    alpha_values,
    contains_strongly_disjoint_set,
    enumerate_minimal_covers,
    facet_complex,
    find_well_ordered_covers,
    induced_subideal,
    is_minimal_cover,
    is_well_ordered_cover,
    multigraded_betti,
    parse_ideal_text,
    restrict_monomial,
    rotate_cover,
    split_certificate,
)
from sqfbetti.covers import (
    CONDITION_COPRIME_PARTS,
    CONDITION_INDUCED_EQUALS_PREFIX,
    _minimal_covers,
    _ordered_cover,
)
from sqfbetti.errors import (
    InvalidSplit,
    NotWellOrdered,
    RotationOutOfRange,
    SizeLimitExceeded,
)

from conftest import mk, random_sqf_ideal


def seq_of(I, *texts):
    """Generator indices for single-character-variable monomial strings."""
    return tuple(
        I.index_of(SqfMonomial.from_names(I.vars, list(t))) for t in texts
    )


def test_minimal_cover_decision(path3):
    xy, yz, zu = 0, 1, 2
    assert is_minimal_cover(path3, [xy, zu])
    # yz has no private variable next to the others
    assert not is_minimal_cover(path3, [xy, yz, zu])
    # misses u
    assert not is_minimal_cover(path3, [xy, yz])


def test_minimal_cover_refuses_indices_of_no_generator():
    # -1 must not read as the last generator, nor 99 raise IndexError
    I = parse_ideal_text("x0 x1\nx1 x2\nx2 x3")
    assert is_minimal_cover(I, [0, 2])
    for cover in ([99], [-1, 0], Cover([-1, 0]), [0, 2, 3]):
        assert not is_minimal_cover(I, cover)


def test_enumerate_minimal_covers_path3(path3):
    covers = enumerate_minimal_covers(path3)
    assert covers == [Cover(frozenset({0, 2}))]


def test_enumerate_minimal_covers_four_triangles(four_triangles):
    covers = enumerate_minimal_covers(four_triangles)
    got = {tuple(sorted(c.members)) for c in covers}
    abz_bcz_xyz = tuple(sorted(seq_of(four_triangles, "abz", "bcz", "xyz")))
    axz_bcz_xyz = tuple(sorted(seq_of(four_triangles, "axz", "bcz", "xyz")))
    assert got == {abz_bcz_xyz, axz_bcz_xyz}
    for c in covers:
        assert is_minimal_cover(four_triangles, c)


def test_minimal_covers_on_randoms_are_minimal():
    rng = random.Random(31)
    for _ in range(25):
        I = random_sqf_ideal(rng, max_vars=6, max_gens=5)
        for c in enumerate_minimal_covers(I):
            assert is_minimal_cover(I, c)
            # dropping any member breaks coverage or was never possible
            for member in c.members:
                smaller = c.members - {member}
                assert not is_minimal_cover(I, smaller) or not smaller


def test_enumeration_partial_keeps_the_result_order(star_cluster, three_brooms):
    # the covers found when the budget runs out come in the order of the
    # full result: by size, then by sorted members
    ideals = [parse_ideal_text("x0 x1\nx2 x3\nx0 x2\nx0 x3"), star_cluster, three_brooms]
    for I in ideals:
        full = enumerate_minimal_covers(I)
        for budget in itertools.count(1):
            try:
                enumerate_minimal_covers(I, budget=budget)
            except SizeLimitExceeded as e:
                kept = set(e.partial)
                assert e.partial == [c for c in full if c in kept], budget
            else:
                break


def test_enumeration_reaches_each_minimal_cover_once(star_cluster, three_brooms, triangle_tail):
    # a generator tried for the lowest uncovered variable is barred below
    # its later siblings, so no cover is completed twice; the subsets
    # decided one by one show that none is lost
    rng = random.Random(5)
    ideals = [star_cluster, three_brooms, triangle_tail]
    ideals += [random_sqf_ideal(rng, max_vars=7, max_gens=7) for _ in range(25)]
    for I in ideals:
        found = []
        _minimal_covers(I, lambda: None, found)
        q = len(I.gens)
        assert len(set(found)) == len(found) == len(enumerate_minimal_covers(I))
        assert set(found) == {
            sum(1 << g for g in c)
            for k in range(1, q + 1)
            for c in itertools.combinations(range(q), k)
            if is_minimal_cover(I, c)
        }


def test_accepted_well_ordered_cover(four_triangles):
    seq = seq_of(four_triangles, "abz", "bcz", "xyz")
    check = is_well_ordered_cover(four_triangles, seq)
    assert check
    assert check.woc.sequence == seq
    axz = seq_of(four_triangles, "axz")[0]
    assert check.woc.witnesses == ((axz, 1),)


def test_rejected_orderings(path3):
    xy, zu = 0, 2
    for seq in ((xy, zu), (zu, xy)):
        check = is_well_ordered_cover(path3, seq)
        assert not check
        assert check.reason


def test_full_search_empty_on_path3(path3):
    assert find_well_ordered_covers(path3) == []
    assert find_well_ordered_covers(path3, first_only=True) == []


def test_search_finds_known_cover(four_triangles):
    found = find_well_ordered_covers(four_triangles)
    sequences = {w.sequence for w in found}
    assert seq_of(four_triangles, "abz", "bcz", "xyz") in sequences
    for w in found:
        assert is_well_ordered_cover(four_triangles, w.sequence)


def test_search_first_only_prefix(four_triangles):
    first = find_well_ordered_covers(four_triangles, first_only=True)
    assert len(first) == 1
    assert is_well_ordered_cover(four_triangles, first[0].sequence)


def test_search_size_filter(four_triangles):
    none = find_well_ordered_covers(four_triangles, size=2)
    assert none == []
    sized = find_well_ordered_covers(four_triangles, size=3)
    assert sized
    assert all(len(w.sequence) == 3 for w in sized)


def test_search_budget(star_cluster):
    with pytest.raises(SizeLimitExceeded) as e:
        find_well_ordered_covers(star_cluster, budget=5)
    assert e.value.partial is not None


def test_first_only_search_stops_each_state_early(star_cluster):
    # each state keeps only its first completion, so the first sequence
    # costs far fewer states than the full search (about 1.2e5 here)
    first = find_well_ordered_covers(star_cluster, first_only=True, budget=2000)
    assert len(first) == 1
    with pytest.raises(SizeLimitExceeded):
        find_well_ordered_covers(star_cluster, budget=2000)


def test_non_cover_sequence_rejected(path3):
    check = is_well_ordered_cover(path3, (0, 1))  # xy, yz: u uncovered
    assert not check
    check = is_well_ordered_cover(path3, (0, 0))  # repeated entry
    assert not check


def test_witness_positions_are_maximal(triangle_tail):
    seq = seq_of(triangle_tail, "ab", "xy", "bc", "xz")
    check = is_well_ordered_cover(triangle_tail, seq)
    assert check
    s = len(seq)
    suffix = [SqfMonomial.one()] * (s + 2)
    for j in range(s, 0, -1):
        prev = suffix[j + 1] if j + 1 <= s else SqfMonomial.one()
        suffix[j] = prev.lcm(triangle_tail.gens[seq[j - 1]])
    for n, j in check.woc.witnesses:
        n_m = triangle_tail.gens[n]
        allowed = n_m.lcm(suffix[j + 1]) if j + 1 <= s else n_m
        assert triangle_tail.gens[seq[j - 1]].divides(allowed)
        # nothing later would do
        for j2 in range(j + 1, s):
            allowed2 = n_m.lcm(suffix[j2 + 1])
            assert not triangle_tail.gens[seq[j2 - 1]].divides(allowed2)


def test_alpha_brute_force_agreement():
    rng = random.Random(37)
    checked = 0
    while checked < 12:
        I = random_sqf_ideal(rng, max_vars=6, max_gens=5)
        found = find_well_ordered_covers(I)
        if not found:
            continue
        checked += 1
        for woc in found[:3]:
            seq = woc.sequence
            s = len(seq)
            alphas, ell = alpha_values(I, woc)
            # recompute each alpha as the largest workable discharge spot
            expect = {}
            for n in range(len(I.gens)):
                if n in seq:
                    continue
                best = None
                for j in range(s - 1, 0, -1):
                    lcm = I.gens[n].mask
                    for k in range(j, s):
                        lcm |= I.gens[seq[k]].mask
                    if I.gens[seq[j - 1]].mask | lcm == lcm:
                        best = j
                        break
                assert best is not None
                expect[n] = best
            assert dict(alphas) == expect
            assert ell == (min(expect.values()) if expect else s)


def _witnesses_by_definition(I, seq):
    """Largest j with m_j | lcm(n, m_{j+1}, ..., m_s) per non-member n, or None."""
    s = len(seq)
    out = []
    for n in range(len(I.gens)):
        if n in seq:
            continue
        hits = []
        for j in range(1, s):
            allowed = I.gens[n]
            for k in seq[j:]:
                allowed = allowed.lcm(I.gens[k])
            if I.gens[seq[j - 1]].divides(allowed):
                hits.append(j)
        if not hits:
            return None
        out.append((n, max(hits)))
    return tuple(out)


def test_search_matches_brute_force_orderings():
    rng = random.Random(71)
    nonempty = 0
    for _ in range(150):
        I = random_sqf_ideal(rng, max_vars=6, max_gens=6)
        accepted = {}
        for cover in enumerate_minimal_covers(I):
            for seq in itertools.permutations(sorted(cover.members)):
                check = is_well_ordered_cover(I, seq)
                expect = _witnesses_by_definition(I, seq)
                assert check.ok == (expect is not None), seq
                if check.ok:
                    assert check.woc.witnesses == expect
                    accepted[seq] = expect
        found = find_well_ordered_covers(I)
        assert len(found) == len(accepted)
        assert {w.sequence: w.witnesses for w in found} == accepted
        # covers by (size, sorted members); within one, the DFS fills the
        # last position first and tries the lowest index first
        assert [w.sequence for w in found] == sorted(
            accepted, key=lambda seq: (len(seq), sorted(seq), seq[::-1])
        )
        first = find_well_ordered_covers(I, first_only=True)
        assert [(w.sequence, w.witnesses) for w in first] == [
            (w.sequence, w.witnesses) for w in found[:1]
        ]
        if accepted:
            assert len(first) == 1
            assert accepted[first[0].sequence] == first[0].witnesses
        else:
            assert first == []
        for size in range(1, len(I.gens) + 1):
            by_size = find_well_ordered_covers(I, size=size)
            assert {w.sequence for w in by_size} == {
                seq for seq in accepted if len(seq) == size
            }
        nonempty += bool(accepted)
    assert nonempty >= 50


def test_alpha_and_ell_on_paper_cover(star_cluster):
    seq = seq_of(star_cluster, "gy", "gx", "eg", "fg", "bcd", "gh", "gi", "abc")
    assert is_well_ordered_cover(star_cluster, seq)
    alphas, ell = alpha_values(star_cluster, seq)
    named = {
        "".join(sorted(star_cluster.vars.name(v) for v in star_cluster.gens[n].indices())): a
        for n, a in alphas
    }
    assert named == {"cdf": 5, "def": 5, "fi": 4, "hi": 6}
    assert ell == 4


def test_ell_is_s_without_non_members():
    I = mk("xy", "zu")
    alphas, ell = alpha_values(I, (0, 1))
    assert alphas == ()
    assert ell == 2


def test_empty_sequence_covers_the_ideal_without_variables():
    # the root state is the only leaf, so no edge reaches it
    I = MonomialIdeal(VariableTable([]), [])
    for first_only in (False, True):
        found = find_well_ordered_covers(I, first_only=first_only)
        assert [(w.sequence, w.witnesses) for w in found] == [((), ())]


def test_rotation_reproduces_shifted_cover(star_cluster):
    seq = seq_of(star_cluster, "gy", "gx", "eg", "fg", "bcd", "gh", "gi", "abc")
    rotated = rotate_cover(is_well_ordered_cover(star_cluster, seq).woc, 4)
    expect = seq_of(star_cluster, "fg", "bcd", "gh", "gi", "abc", "gy", "gx", "eg")
    assert rotated == expect
    assert is_well_ordered_cover(star_cluster, rotated)


def test_rotation_range(star_cluster):
    seq = seq_of(star_cluster, "gy", "gx", "eg", "fg", "bcd", "gh", "gi", "abc")
    woc = is_well_ordered_cover(star_cluster, seq).woc
    for i in (1, 5, 6):  # ell = 4
        with pytest.raises(RotationOutOfRange):
            rotate_cover(woc, i)
    # rotating past ell really does break the cover here
    manual = seq[5:] + seq[:5]
    assert not is_well_ordered_cover(star_cluster, manual)


def test_rotations_up_to_ell_stay_well_ordered():
    rng = random.Random(41)
    checked = 0
    while checked < 10:
        I = random_sqf_ideal(rng, max_vars=6, max_gens=5)
        found = find_well_ordered_covers(I)
        if not found:
            continue
        checked += 1
        woc = found[0]
        _, ell = alpha_values(I, woc)
        for i in range(2, ell + 1):
            rotated = rotate_cover(woc, i)
            assert is_well_ordered_cover(I, rotated)


def test_split_certificates_on_triangle_tail(triangle_tail):
    vars = triangle_tail.vars
    seq = seq_of(triangle_tail, "ab", "xy", "bc", "xz")
    cert1 = split_certificate(triangle_tail, seq, 1)
    assert cert1.m == SqfMonomial.from_names(vars, ["a", "b"])
    assert cert1.m2 == SqfMonomial.from_names(vars, ["b", "c", "x", "y", "z"])
    assert cert1.complement_ok
    assert cert1.suffix_woc_ok
    assert cert1.condition == CONDITION_INDUCED_EQUALS_PREFIX
    assert cert1.prefix_woc_ok

    cert2 = split_certificate(triangle_tail, seq, 2)
    assert cert2.m == SqfMonomial.from_names(vars, ["a", "b", "x", "y"])
    assert cert2.m2 == SqfMonomial.from_names(vars, ["b", "c", "x", "z"])
    assert cert2.m.gcd(cert2.m2) == SqfMonomial.from_names(vars, ["b", "x"])
    assert cert2.complement_ok
    assert cert2.suffix_woc_ok
    assert cert2.condition == CONDITION_INDUCED_EQUALS_PREFIX


def test_split_coprime_condition():
    # prefix lcm xyz also absorbs the non-member yz, so the induced
    # subideal is strictly bigger than the prefix; only coprimality applies
    I = mk("xy", "yz", "xz", "uv")
    seq = seq_of(I, "xy", "xz", "uv")
    cert = split_certificate(I, seq, 2)
    assert cert.condition == CONDITION_COPRIME_PARTS
    assert cert.complement_ok
    assert cert.prefix_woc_ok


def test_split_bad_positions(triangle_tail):
    seq = seq_of(triangle_tail, "ab", "xy", "bc", "xz")
    for a in (0, 4, 7):
        with pytest.raises(InvalidSplit):
            split_certificate(triangle_tail, seq, a)


def test_split_requires_well_ordered(path3):
    with pytest.raises(NotWellOrdered):
        split_certificate(path3, (0, 2), 1)


def test_split_refuses_a_cover_of_another_ideal(four_triangles, path3):
    woc = find_well_ordered_covers(four_triangles)[0]
    with pytest.raises(NotWellOrdered):
        split_certificate(path3, woc, 1)
    # an equal ideal, parsed again, is the same ideal
    again = mk("abz", "bcz", "xyz", "axz")
    assert split_certificate(again, woc, 1).m == split_certificate(four_triangles, woc, 1).m


def test_alpha_values_refuse_a_cover_of_another_ideal(four_triangles, triangle_tail):
    woc = find_well_ordered_covers(four_triangles)[0]
    with pytest.raises(NotWellOrdered):
        alpha_values(triangle_tail, woc)
    again = mk("abz", "bcz", "xyz", "axz")
    assert alpha_values(again, woc) == alpha_values(four_triangles, woc)


def test_splits_on_random_wocs():
    rng = random.Random(43)
    checked = 0
    while checked < 10:
        I = random_sqf_ideal(rng, max_vars=6, max_gens=5)
        found = find_well_ordered_covers(I)
        if not found:
            continue
        checked += 1
        for woc in found[:2]:
            s = len(woc.sequence)
            for a in range(1, s):
                cert = split_certificate(I, woc, a)
                assert cert.complement_ok
                assert cert.suffix_woc_ok
                if cert.condition is not None:
                    assert cert.prefix_woc_ok


def test_found_covers_certify_betti_numbers(four_triangles):
    # the certification behind the search: a length-s cover forces
    # a nonzero Betti number at its lcm in degree s
    for woc in find_well_ordered_covers(four_triangles):
        s = len(woc.sequence)
        lcm = SqfMonomial.one()
        for k in woc.sequence:
            lcm = lcm.lcm(four_triangles.gens[k])
        assert multigraded_betti(four_triangles, s, lcm) >= 1


def test_cover_container_behavior():
    c = Cover(frozenset({3, 1, 2}))
    assert len(c) == 3
    assert list(c) == [1, 2, 3]
    assert c == Cover(frozenset({1, 2, 3}))
    assert hash(c) == hash(Cover(frozenset({1, 2, 3})))


def test_splits_match_the_induced_subideal_definition():
    # the definition, on a second ideal: each half must be a well ordered
    # cover of the induced subideal of its lcm, over that subideal's own
    # variables, and condition reads the retained generators directly
    rng = random.Random(53)
    checked = 0
    outcomes = set()
    while checked < 60:
        I = random_sqf_ideal(rng, max_vars=8, max_gens=8)
        found = find_well_ordered_covers(I)
        if not found:
            continue
        checked += 1
        for woc in found[:3]:
            seq = woc.sequence
            for a in range(1, len(seq)):
                halves = []
                for part in (seq[:a], seq[a:]):
                    lcm = SqfMonomial.one()
                    for i in part:
                        lcm = lcm.lcm(I.gens[i])
                    sub = induced_subideal(I, lcm)
                    local = [
                        sub.index_of(restrict_monomial(I.gens[i], I.vars, sub.vars))
                        for i in part
                    ]
                    halves.append((lcm, is_well_ordered_cover(sub, local).ok))
                (m, prefix_ok), (m2, suffix_ok) = halves
                retained = {i for i, g in enumerate(I.gens) if g.divides(m)}
                if retained == set(seq[:a]):
                    condition = CONDITION_INDUCED_EQUALS_PREFIX
                elif m.gcd(m2).is_one:
                    condition = CONDITION_COPRIME_PARTS
                else:
                    condition = None
                cert = split_certificate(I, woc, a)
                assert (cert.m, cert.m2) == (m, m2)
                assert cert.prefix_woc_ok == prefix_ok
                assert cert.suffix_woc_ok == suffix_ok
                assert cert.condition == condition
                outcomes.add((prefix_ok, condition))
    # every combination the certificate can report occurred
    assert outcomes == {
        (True, CONDITION_INDUCED_EQUALS_PREFIX),
        (True, CONDITION_COPRIME_PARTS),
        (True, None),
        (False, None),
    }


# the ideals of the benchmark's certify workload: their sequence counts,
# and the least search budgets that complete (all, first_only); the
# budget also counts the 52, 85, 27 and 17 states of the minimal cover
# enumeration
CERTIFY_SEARCHES = {
    "star_cluster": (36_960, 121_283, 77),
    "cycle12": (15_120, 45_048, 127),
    "three_brooms": (6_720, 19_576, 42),
    "triangle_tail": (64, 266, 26),
}


@pytest.fixture(scope="module")
def cycle12():
    return parse_ideal_text("\n".join(f"x{i} x{(i + 1) % 12}" for i in range(12)))


@pytest.mark.parametrize("name", CERTIFY_SEARCHES)
def test_search_witnesses_match_the_decision_at_full_size(request, name):
    # the search carries its witnesses; the decision recomputes them
    I = request.getfixturevalue(name)
    masks = [g.mask for g in I.gens]
    found = find_well_ordered_covers(I)
    assert len(found) == len({w.sequence for w in found}) == CERTIFY_SEARCHES[name][0]
    for w in found:
        ok, witnesses, _ = _ordered_cover(masks, w.sequence, I.vars.full_mask)
        assert ok and w.witnesses == tuple(witnesses), w.sequence
    first = find_well_ordered_covers(I, first_only=True)
    assert [(w.sequence, w.witnesses) for w in first] == [
        (w.sequence, w.witnesses) for w in found[:1]
    ]


@pytest.mark.parametrize("first_only", [False, True])
@pytest.mark.parametrize("name", CERTIFY_SEARCHES)
def test_search_budget_is_pinned(request, name, first_only):
    # one budget counts enumeration states, search states and the heads
    # they extend; these are exact, and the partial results are always
    # a prefix of the full search, witnesses included, whichever part of
    # the search ran out
    I = request.getfixturevalue(name)
    budget = CERTIFY_SEARCHES[name][2 if first_only else 1]
    assert find_well_ordered_covers(I, first_only=first_only, budget=budget)
    with pytest.raises(SizeLimitExceeded) as e:
        find_well_ordered_covers(I, first_only=first_only, budget=budget - 1)
    assert str(e.value).startswith("well ordered cover search exceeded")
    assert isinstance(e.value.partial, list)
    assert all(isinstance(w, WellOrderedCover) for w in e.value.partial)
    partial = [(w.sequence, w.witnesses) for w in e.value.partial]
    full = find_well_ordered_covers(I)
    assert partial == [(w.sequence, w.witnesses) for w in full[: len(partial)]]
    masks = [g.mask for g in I.gens]
    for seq, witnesses in partial:
        ok, expect, _ = _ordered_cover(masks, seq, I.vars.full_mask)
        assert ok and witnesses == tuple(expect), seq


COVERS_GOLDEN = Path(__file__).resolve().parent / "covers_golden.json"


@pytest.mark.parametrize("name", json.loads(COVERS_GOLDEN.read_text()))
def test_search_gives_the_pinned_sequences(name):
    # the full search on the ideals of the benchmark's certify workload:
    # the sha256 of the repr of its (sequence, witnesses) list pins the
    # order and the witnesses, and first_only gives its first sequence
    pinned = json.loads(COVERS_GOLDEN.read_text())[name]
    I = parse_ideal_text("\n".join(pinned["gens"]))
    found = [(w.sequence, w.witnesses) for w in find_well_ordered_covers(I)]
    first = [(w.sequence, w.witnesses) for w in find_well_ordered_covers(I, first_only=True)]
    assert len(found) == pinned["count"]
    assert hashlib.sha256(repr(found).encode()).hexdigest() == pinned["sha256"]
    assert first == found[:1]


def test_searches_leave_no_reference_cycles(three_brooms):
    # a dropped result is freed by reference counting alone: no search
    # keeps its recursion, its memo or its results in a cycle
    delta = facet_complex(three_brooms)
    gc.collect()
    gc.disable()
    try:
        find_well_ordered_covers(three_brooms)
        find_well_ordered_covers(three_brooms, first_only=True)
        enumerate_minimal_covers(three_brooms)
        contains_strongly_disjoint_set(delta)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_search_cuts_a_cover_no_ordering_completes(path3):
    # y z holds no private variable of x y or of z u, so no member can
    # discharge it: every child of the root is cut, and the search spends
    # the 4 enumeration states and the root
    for first_only in (False, True):
        assert find_well_ordered_covers(path3, first_only=first_only, budget=5) == []
        with pytest.raises(SizeLimitExceeded):
            find_well_ordered_covers(path3, first_only=first_only, budget=4)


def test_search_budget_covers_the_enumeration(three_brooms):
    # the enumeration's 27 states are spent from the search's budget, so
    # running out there leaves no well ordered cover, not a list of covers
    assert enumerate_minimal_covers(three_brooms, budget=27)
    with pytest.raises(SizeLimitExceeded):
        enumerate_minimal_covers(three_brooms, budget=26)
    with pytest.raises(SizeLimitExceeded) as e:
        find_well_ordered_covers(three_brooms, first_only=True, budget=27)
    assert e.value.partial == []
