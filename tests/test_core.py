import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqfbetti import (
    EMPTY_IDEAL,
    SimplicialComplex,
    SqfMonomial,
    VariableTable,
    facet_complex,
    facet_ideal,
    format_ideal_text,
    format_monomial,
    free_vertices,
    induced_subideal,
    monomial_names,
    normalize_generators,
    parse_ideal,
    parse_ideal_json,
    parse_ideal_text,
    polarize,
    restrict_monomial,
)
from sqfbetti.core import _VARIABLE_NAME, private_bits
from sqfbetti.errors import (
    EmptyInput,
    NotAFacet,
    ParseError,
    SqfBettiError,
    TooManyVariables,
    UncoveredVariable,
)

from conftest import random_sqf_ideal


def test_variable_table_basics():
    vars = VariableTable(["x", "y", "z"])
    assert len(vars) == 3
    assert vars.full_mask == 0b111
    assert vars.name(1) == "y"
    assert vars.mask_of(["x", "z"]) == 0b101
    with pytest.raises(ParseError):
        vars.mask_of(["w"])
    with pytest.raises(ParseError):
        VariableTable(["x", "x"])


def test_variable_table_width_cap():
    names = [f"v{i}" for i in range(65)]
    with pytest.raises(TooManyVariables):
        VariableTable(names)
    wide = VariableTable(names, wide=True)
    assert len(wide) == 65


def test_monomial_operations():
    xy = SqfMonomial.from_indices([0, 1])
    yz = SqfMonomial.from_indices([1, 2])
    assert xy.degree == 2
    assert not xy.divides(yz)
    assert xy.divides(xy.lcm(yz))
    assert xy.lcm(yz).mask == 0b111
    assert xy.gcd(yz).indices() == (1,)
    one = SqfMonomial.one()
    assert one.is_one
    assert one.divides(xy)
    assert xy.lcm(one) == xy


def test_monomial_ordering_is_degree_then_support():
    ms = [
        SqfMonomial.from_indices(ix)
        for ix in [(2,), (0, 1), (0,), (1, 2), (0, 1, 2)]
    ]
    ordered = sorted(ms)
    assert [m.indices() for m in ordered] == [
        (0,),
        (2,),
        (0, 1),
        (1, 2),
        (0, 1, 2),
    ]


def test_sort_key_orders_like_degree_then_indices():
    def by_tuple(m):
        return (m.degree, m.indices())

    small = [SqfMonomial(mask) for mask in range(2**12)]
    rng = random.Random(11)
    wide = [SqfMonomial(rng.getrandbits(rng.randint(65, 130))) for _ in range(2000)]
    # equal-degree masks: one 101-bit mask with a set and an unset bit swapped
    base = rng.getrandbits(100) | 1 << 100
    for _ in range(200):
        i, j = rng.sample(range(101), 2)
        if (base >> i ^ base >> j) & 1:
            wide.append(SqfMonomial(base ^ (1 << i | 1 << j)))
    for ms in (small, wide):
        assert sorted(ms, key=SqfMonomial.sort_key) == sorted(ms, key=by_tuple)


def test_format_monomial():
    vars = VariableTable(["x", "y", "z"])
    assert format_monomial(SqfMonomial.one(), vars) == "1"
    assert format_monomial(SqfMonomial(0b101), vars) == "x*z"
    assert monomial_names(SqfMonomial(0b101), vars) == ["x", "z"]
    assert monomial_names(SqfMonomial.one(), vars) == []


def test_normalize_drops_non_minimal_and_duplicates():
    vars = VariableTable(["x", "y", "z"])
    gens = [
        SqfMonomial(0b011),  # xy
        SqfMonomial(0b011),  # duplicate
        SqfMonomial(0b111),  # xyz, divisible by xy
        SqfMonomial(0b100),  # z
    ]
    I = normalize_generators(gens, vars)
    assert [g.mask for g in I.gens] == [0b100, 0b011]


def test_normalize_rejects_unit_and_empty():
    vars = VariableTable(["x"])
    with pytest.raises(EmptyInput):
        normalize_generators([], vars)
    with pytest.raises(ParseError):
        normalize_generators([SqfMonomial.one()], vars)


def test_normalize_rejects_uncovered_variable():
    vars = VariableTable(["x", "y", "z"])
    with pytest.raises(UncoveredVariable) as e:
        normalize_generators([SqfMonomial(0b011)], vars)
    assert e.value.name == "z"


def test_ideal_membership_and_top(path3):
    vars = path3.vars
    assert path3.contains(SqfMonomial.from_names(vars, ["x", "y", "z"]))
    assert not path3.contains(SqfMonomial.from_names(vars, ["x", "z"]))
    assert path3.top().mask == vars.full_mask
    xy = SqfMonomial.from_names(vars, ["x", "y"])
    assert path3.index_of(xy) == path3.gens.index(xy)
    with pytest.raises(ValueError):
        path3.index_of(SqfMonomial.from_names(vars, ["x", "z"]))


def test_facet_dictionary_roundtrip(three_brooms):
    delta = facet_complex(three_brooms)
    assert delta.facets == three_brooms.gens
    back = facet_ideal(delta)
    assert back == three_brooms
    # the ideal is canonical already, so the complex is built on it as is
    assert back is three_brooms
    assert delta.vars is three_brooms.vars


def test_facet_index_accepts_int_or_monomial(path3):
    delta = facet_complex(path3)
    assert delta.facet_index(1) == 1
    assert delta.facet_index(path3.gens[2]) == 2
    with pytest.raises(NotAFacet):
        delta.facet_index(SqfMonomial.from_names(path3.vars, ["x", "z"]))
    with pytest.raises(NotAFacet):
        delta.facet_index(17)


def test_complex_rejects_nested_facets():
    vars = VariableTable(["x", "y"])
    with pytest.raises(ParseError, match=r"facet x is contained in x\*y"):
        SimplicialComplex(vars, [SqfMonomial(0b01), SqfMonomial(0b11)])
    with pytest.raises(ParseError, match=r"facet y is contained in y$"):
        SimplicialComplex(vars, [SqfMonomial(0b01), SqfMonomial(0b10), SqfMonomial(0b10)])


def test_complex_rejects_facets_outside_the_table_and_an_empty_list():
    vars = VariableTable(["x", "y"])
    with pytest.raises(ParseError, match="outside the variable table"):
        SimplicialComplex(vars, [SqfMonomial(0b111)])
    with pytest.raises(EmptyInput):
        SimplicialComplex(vars, [])
    with pytest.raises(UncoveredVariable):
        SimplicialComplex(vars, [SqfMonomial(0b01)])


def test_complex_keeps_its_facets_in_the_facet_ideals_order():
    # facet i is generator i, whatever order the facets are given in
    rng = random.Random(19)
    for _ in range(200):
        I = random_sqf_ideal(rng, max_vars=7, max_gens=7)
        facets = list(I.gens)
        rng.shuffle(facets)
        delta = SimplicialComplex(I.vars, facets)
        assert delta.facets == I.gens
        assert facet_ideal(delta) == I
        assert delta == facet_complex(I)


def test_free_vertices_path(path3):
    delta = facet_complex(path3)
    # x is only in xy, u only in zu; y and z are shared
    free_by_facet = [free_vertices(delta, i) for i in range(3)]
    names = [{path3.vars.name(v) for v in fv} for fv in free_by_facet]
    assert names == [{"x"}, set(), {"u"}]


def test_induced_subideal_keeps_dividing_generators(triangle_tail):
    vars = triangle_tail.vars
    m = SqfMonomial.from_names(vars, ["x", "y", "z", "a"])
    sub = induced_subideal(triangle_tail, m)
    assert sub
    got = {format_monomial(g, sub.vars) for g in sub.gens}
    assert got == {"x*y", "y*z", "x*z", "z*a"}


def test_induced_subideal_empty(path3):
    m = SqfMonomial.from_names(path3.vars, ["x", "z"])
    assert induced_subideal(path3, m) is EMPTY_IDEAL
    assert not EMPTY_IDEAL


def test_induced_subideal_preserves_canonical_order(three_brooms):
    m = three_brooms.top()
    sub = induced_subideal(three_brooms, m)
    restricted = [
        restrict_monomial(g, three_brooms.vars, sub.vars) for g in three_brooms.gens
    ]
    assert list(sub.gens) == restricted


def test_private_bits_matches_definition():
    rng = random.Random(29)
    cases = [[], [0b1011]]
    for _ in range(300):
        pool = [rng.randrange(1 << 6) for _ in range(rng.randint(1, 4))]
        cases.append([rng.choice(pool) for _ in range(rng.randint(1, 7))])
    for masks in cases:
        expect = []
        for k, m in enumerate(masks):
            others = 0
            for j, o in enumerate(masks):
                if j != k:
                    others |= o
            expect.append(m & ~others)
        assert private_bits(masks) == expect, masks
    assert private_bits([0b110, 0b110, 0b001]) == [0, 0, 0b001]


def test_restrict_monomial_roundtrip():
    src = VariableTable(["x", "y", "z"])
    dst = VariableTable(["z", "x"])
    m = SqfMonomial.from_names(src, ["x", "z"])
    r = restrict_monomial(m, src, dst)
    assert monomial_names(r, dst) == ["z", "x"]
    back = restrict_monomial(r, dst, src)
    assert back == m


def test_polarize_square_free_unchanged():
    I = polarize([{"x": 1, "y": 1}, {"y": 1, "z": 1}])
    assert format_ideal_text(I) == "x*y\ny*z"


def test_polarize_splits_powers():
    # x^2 y becomes x x(1) y
    I = polarize([{"x": 2, "y": 1}, {"y": 3}])
    texts = {format_monomial(g, I.vars) for g in I.gens}
    assert "x*x(1)*y" in texts
    assert "y*y(1)*y(2)" in texts
    with pytest.raises(ParseError):
        polarize([{"x": 0}])


def test_parse_text_interns_first_seen_order():
    I = parse_ideal_text("b a\n# comment line\na c")
    assert I.vars.names == ("b", "a", "c")
    assert len(I.gens) == 2


def test_parse_text_star_separator(path3):
    J = parse_ideal_text("x*y\ny*z\nz*u")
    assert J == path3


@pytest.mark.parametrize("text", ["x y, y z", "x^2 y", "x+y", "a b\nc 1x"])
def test_parse_text_rejects_bad_variable_names(text):
    with pytest.raises(ParseError, match="bad variable name .* on line"):
        parse_ideal_text(text)


def test_parse_text_error_names_token_and_line():
    with pytest.raises(ParseError, match=r"'y,' on line 3"):
        parse_ideal_text("# comment\na b\nx y, y z")


def test_polarized_text_parses_back():
    I = polarize([{"x": 2, "y": 1}, {"y": 3, "z_1": 1}, {"x": 1, "z_1": 2}])
    J = parse_ideal_text(format_ideal_text(I))

    def named(K):
        return {frozenset(monomial_names(g, K.vars)) for g in K.gens}

    # text lists variables by first use, so compare generators by name
    assert named(J) == named(I)
    assert sorted(J.vars.names) == sorted(I.vars.names)


def test_polarize_rejects_a_copy_named_like_a_base():
    # x^2 would add x(1), which the second generator already uses
    with pytest.raises(ParseError, match=r"'x'.*'x\(1\)'"):
        polarize([{"x": 2}, {"x(1)": 1, "y": 1}])
    with pytest.raises(ParseError, match=r"'x'.*'x\(2\)'"):
        polarize([{"x": 3, "x(2)": 1}])


def test_polarize_rejects_a_power_of_a_suffixed_base():
    # its copies would be x(1)(1), ..., outside the text grammar
    with pytest.raises(ParseError, match=r"'x\(1\)'"):
        polarize([{"x(1)": 2}])


def test_polarize_format_then_parse_round_trip():
    # y(5) is square-free, so it keeps its suffixed name
    I = polarize([{"y": 1, "x": 2}, {"x": 1, "y": 3}, {"z": 2, "y(5)": 1}])
    assert I.vars.names == ("y", "x", "x(1)", "y(1)", "y(2)", "z", "z(1)", "y(5)")
    text = format_ideal_text(I)
    assert text == "y*x*x(1)\nz*z(1)*y(5)\ny*x*y(1)*y(2)"
    assert format_ideal_text(parse_ideal_text(text)) == text


def test_parse_json_rejects_bad_variable_names():
    data = {"variables": ["x^2", "y,"], "generators": [["x^2", "y,"]]}
    with pytest.raises(ParseError, match=r"bad variable name 'x\^2'"):
        parse_ideal_json(data)
    with pytest.raises(ParseError, match=r"bad variable name 'y,'"):
        parse_ideal_json({"variables": ["x", "y,"], "generators": [[0, 1]]})
    with pytest.raises(ParseError, match="bad variable name"):
        parse_ideal(json.dumps(data))


@pytest.mark.parametrize(
    "data",
    [
        {"variables": ["x"], "generators": 5},
        {"variables": ["x"], "generators": None},
        {"variables": ["x"], "generators": [[["x"]]]},
        {"variables": ["x", "y"], "generators": [[{"a": 1}]]},
        {"variables": ["x", "y"], "generators": [[True]]},
        {"variables": ["x", "y"], "generators": [[0, "y"]]},
    ],
)
def test_parse_json_rejects_malformed_generators(data):
    with pytest.raises(ParseError):
        parse_ideal_json(data)
    with pytest.raises(ParseError):
        parse_ideal(json.dumps(data))


def test_parse_rejects_a_repeated_variable():
    with pytest.raises(ParseError, match=r"'x' repeated on line 1"):
        parse_ideal_text("x*x\ny")
    with pytest.raises(ParseError, match=r"'x' repeated on line 3"):
        parse_ideal_text("# comment\na b\nx y x")
    named = {"variables": ["x", "y"], "generators": [["x", "x"], ["y"]]}
    indexed = {"variables": ["x", "y"], "generators": [["y"], [1, 0, 0]]}
    with pytest.raises(ParseError, match=r"\['x', 'x'\] repeats variable 'x'"):
        parse_ideal_json(named)
    with pytest.raises(ParseError, match=r"\[1, 0, 0\] repeats variable 'x'"):
        parse_ideal_json(indexed)
    with pytest.raises(ParseError, match="repeats variable"):
        parse_ideal(json.dumps(indexed))


def test_parse_text_empty_raises():
    with pytest.raises(EmptyInput):
        parse_ideal_text("   \n# only a comment\n")


def reference_parse_ideal_text(text: str, wide: bool = False):
    """parse_ideal_text as it was written with index lists: the reference."""
    names: list[str] = []
    seen: dict[str, int] = {}
    raw_gens: list[list[int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = [t for t in line.replace("*", " ").split() if t]
        indices = []
        for tok in tokens:
            if tok not in seen:
                if not _VARIABLE_NAME.fullmatch(tok):
                    raise ParseError(f"bad variable name {tok!r} on line {lineno}")
                seen[tok] = len(names)
                names.append(tok)
            elif seen[tok] in indices:
                raise ParseError(
                    f"variable {tok!r} repeated on line {lineno}: "
                    "generators must be square-free"
                )
            indices.append(seen[tok])
        raw_gens.append(indices)
    if not raw_gens:
        raise EmptyInput("no generators in input")
    vars = VariableTable(names, wide=wide)
    gens = [SqfMonomial.from_indices(ix) for ix in raw_gens]
    return normalize_generators(gens, vars)


# mostly good names, polarized ones among them, and now and then a bad one
GOOD_NAMES = ["x", "y", "z", "w", "x(1)", "x(12)", "y(1)", "ab_2", "_q", "Y3"]
BAD_NAMES = ["1x", "x^2", "x+y", "y,", "x(", "(1)", "x(1)y"]
TEXT_NAMES = st.sampled_from(GOOD_NAMES * 8 + BAD_NAMES)
TEXT_SEPARATORS = st.sampled_from([" ", "*", " * ", "\t", "**", "  ", "* "])


@st.composite
def ideal_texts(draw):
    lines: list[str] = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["gen", "gen", "gen", "copy", "comment", "blank"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# note", "  #x y", "#"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        elif kind == "copy" and lines:
            # a repeated generator, or one nested in an earlier line
            extra = draw(st.sampled_from(["", " w", "*x", " y(1)"]))
            lines.append(draw(st.sampled_from(lines)) + extra)
        else:
            tokens = draw(st.lists(TEXT_NAMES, min_size=1, max_size=4))
            line = tokens[0]
            for tok in tokens[1:]:
                line += draw(TEXT_SEPARATORS) + tok
            pad = draw(st.sampled_from(["", " ", "*", "\t "]))
            lines.append(pad + line + draw(st.sampled_from(["", " ", "*"])))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(ideal_texts())
def test_parse_text_matches_the_index_list_reference(text):
    try:
        expected = reference_parse_ideal_text(text)
    except SqfBettiError as e:
        with pytest.raises(type(e)) as got:
            parse_ideal_text(text)
        assert type(got.value) is type(e)
        assert str(got.value) == str(e)
        return
    I = parse_ideal_text(text)
    assert I.vars.names == expected.vars.names
    assert [g.mask for g in I.gens] == [g.mask for g in expected.gens]


def test_json_roundtrip(triangle_tail):
    data = {
        "variables": list(triangle_tail.vars.names),
        "generators": [monomial_names(g, triangle_tail.vars) for g in triangle_tail.gens],
    }
    J = parse_ideal_json(data)
    assert J == triangle_tail
    K = parse_ideal(json.dumps(data))
    assert K == triangle_tail


def test_parse_autodetects_format(path3):
    assert parse_ideal("x y\ny z\nz u") == path3


@given(
    st.integers(min_value=0, max_value=2**10 - 1),
    st.integers(min_value=0, max_value=2**10 - 1),
)
def test_divisibility_matches_mask_inclusion(a, b):
    ma, mb = SqfMonomial(a), SqfMonomial(b)
    assert ma.divides(mb) == (a & b == a)
    assert ma.lcm(mb).mask == (a | b)
    assert ma.gcd(mb).mask == (a & b)


def test_mk_helper(star_cluster):
    assert len(star_cluster.gens) == 12
    assert len(star_cluster.vars) == 11
    # canonical order: degree first, then support indices
    degrees = [g.degree for g in star_cluster.gens]
    assert degrees == sorted(degrees)
