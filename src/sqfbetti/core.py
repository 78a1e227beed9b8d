"""Square-free monomials, ideals, and the facet dictionary.

Variables are interned once into a :class:`VariableTable`; monomials are
bit masks over that table.  A :class:`MonomialIdeal` keeps a minimal,
canonically sorted generating set, and converts back and forth with the
:class:`SimplicialComplex` of its generator supports (the facet ideal /
facet complex dictionary).
"""

from __future__ import annotations

import json
import re
from typing import Iterable, Mapping, Sequence

from .errors import (
    EmptyInput,
    NotAFacet,
    ParseError,
    TooManyVariables,
    UncoveredVariable,
)

MAX_NARROW_VARS = 64

# a plain identifier, optionally with the "(k)" suffix that polarize adds
_VARIABLE_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\([0-9]+\))?")

# swaps the binary digits, for mask_sort_key
_FLIP_BITS = str.maketrans("01", "10")


def mask_sort_key(mask: int) -> tuple[int, str]:
    """The canonical order of masks: by degree, then by the sorted index tuple.

    Orders masks exactly as ``(degree, indices)`` does, without building
    the tuple.  The string is the mask's binary digits from bit 0 up,
    with 0 and 1 swapped.  At equal degree the lowest differing bit
    decides, and the mask holding it sorts first, as its smaller index
    does in the tuple.  Two strings of equal degree are never in a
    prefix relation: the longer one agrees with the shorter one's bits
    and also holds its own top bit, so its degree would be higher.
    """
    return (mask.bit_count(), bin(mask)[:1:-1].translate(_FLIP_BITS))


def _indices_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class VariableTable:
    """Interned variable names; order is fixed at construction.

    The order is first-seen input order, and every canonical sort in the
    package refers back to it.  More than 64 variables requires
    ``wide=True`` (nothing changes internally, masks are plain ints; the
    cap just keeps accidental huge inputs from sailing through).
    """

    __slots__ = ("names", "index", "full_mask")

    def __init__(self, names: Iterable[str], wide: bool = False):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ParseError("duplicate variable names")
        if len(names) > MAX_NARROW_VARS and not wide:
            raise TooManyVariables(
                f"{len(names)} variables; pass wide=True to allow more than "
                f"{MAX_NARROW_VARS}"
            )
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self.full_mask = (1 << len(names)) - 1

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, VariableTable) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VariableTable({list(self.names)!r})"

    def name(self, i: int) -> str:
        return self.names[i]

    def mask_of(self, names: Iterable[str]) -> int:
        m = 0
        for name in names:
            try:
                m |= 1 << self.index[name]
            except KeyError:
                raise ParseError(f"unknown variable {name!r}") from None
        return m


class SqfMonomial:
    """A square-free monomial: a set of variable indices stored as a mask.

    The empty support is the monomial 1.  Divisibility is mask inclusion,
    lcm is union, gcd is intersection.
    """

    __slots__ = ("mask",)

    def __init__(self, mask: int = 0):
        if mask < 0:
            raise ValueError("negative mask")
        self.mask = mask

    @classmethod
    def one(cls) -> "SqfMonomial":
        return cls(0)

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "SqfMonomial":
        m = 0
        for i in indices:
            if i < 0:
                raise ValueError(f"negative variable index {i}")
            m |= 1 << i
        return cls(m)

    @classmethod
    def from_names(cls, vars: VariableTable, names: Iterable[str]) -> "SqfMonomial":
        return cls(vars.mask_of(names))

    def indices(self) -> tuple[int, ...]:
        return _indices_of(self.mask)

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    @property
    def is_one(self) -> bool:
        return self.mask == 0

    def divides(self, other: "SqfMonomial") -> bool:
        return self.mask | other.mask == other.mask

    def lcm(self, other: "SqfMonomial") -> "SqfMonomial":
        return SqfMonomial(self.mask | other.mask)

    def gcd(self, other: "SqfMonomial") -> "SqfMonomial":
        return SqfMonomial(self.mask & other.mask)

    def sort_key(self) -> tuple[int, str]:
        """The canonical order: :func:`mask_sort_key` of the mask."""
        return mask_sort_key(self.mask)

    def __eq__(self, other) -> bool:
        return isinstance(other, SqfMonomial) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __lt__(self, other: "SqfMonomial") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"SqfMonomial({list(self.indices())!r})"


def format_monomial(m: SqfMonomial, vars: VariableTable) -> str:
    if m.is_one:
        return "1"
    return "*".join(vars.names[i] for i in m.indices())


def monomial_names(m: SqfMonomial, vars: VariableTable) -> list[str]:
    return [vars.names[i] for i in m.indices()]


class MonomialIdeal:
    """A square-free monomial ideal with a minimal generating set.

    ``gens`` is canonically sorted by (degree, sorted index tuple); the
    position of a generator here is the facet index used everywhere else
    in the package, and ``masks`` holds their masks in that order.
    Construct through :func:`normalize_generators` unless the invariants
    are already known to hold.
    """

    __slots__ = ("vars", "gens", "masks")

    def __init__(self, vars: VariableTable, gens: Sequence[SqfMonomial]):
        self.vars = vars
        self.gens = tuple(gens)
        self.masks = tuple(g.mask for g in self.gens)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.vars == other.vars
            and self.gens == other.gens
        )

    def __hash__(self) -> int:
        return hash((self.vars, self.gens))

    def __repr__(self) -> str:
        gens = ", ".join(format_monomial(g, self.vars) for g in self.gens)
        return f"MonomialIdeal({gens})"

    def __len__(self) -> int:
        return len(self.gens)

    def top(self) -> SqfMonomial:
        """lcm of all generators, x_1...x_n by the covering invariant."""
        m = 0
        for g in self.gens:
            m |= g.mask
        return SqfMonomial(m)

    def contains(self, m: SqfMonomial) -> bool:
        """Ideal membership: some generator divides m."""
        return any(not g & ~m.mask for g in self.masks)

    def index_of(self, g: SqfMonomial) -> int:
        for i, h in enumerate(self.gens):
            if h.mask == g.mask:
                return i
        raise ValueError(f"{g!r} is not a generator")


class _EmptyIdeal:
    """Distinguished marker for an induced subideal with no generators.

    Falsy, so ``if induced:`` reads naturally.  A singleton: compare with
    ``is EMPTY_IDEAL``.
    """

    __slots__ = ()
    gens: tuple = ()
    masks: tuple = ()

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "EMPTY_IDEAL"


EMPTY_IDEAL = _EmptyIdeal()


class SimplicialComplex:
    """Facet list over a variable table, kept as its facet ideal.

    The facets are validated as :func:`normalize_generators` validates
    generators, and a list it would change (a repeated or nested facet,
    a facet outside the table) is refused.  ``facets`` is in the ideal's
    canonical order, so facet i is generator i of ``ideal``.  The
    bouquet searches cache the facets' distance-2 relation in ``_near``
    (None until first needed), so a complex is not changed once built.
    """

    __slots__ = ("vars", "facets", "ideal", "_near")

    def __init__(self, vars: VariableTable, facets: Sequence[SqfMonomial]):
        self._set_ideal(_normalize([f.mask for f in facets], vars, refuse_drops=True))

    def _set_ideal(self, ideal: MonomialIdeal) -> None:
        self.vars = ideal.vars
        self.facets = ideal.gens
        self.ideal = ideal
        self._near = None

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self.ideal == other.ideal

    def __hash__(self) -> int:
        return hash(self.ideal)

    def __len__(self) -> int:
        return len(self.facets)

    def __repr__(self) -> str:
        fs = ", ".join(format_monomial(f, self.vars) for f in self.facets)
        return f"SimplicialComplex<{fs}>"

    def facet_index(self, f) -> int:
        """Resolve an int index or a monomial to a facet position."""
        if isinstance(f, SqfMonomial):
            for i, g in enumerate(self.facets):
                if g.mask == f.mask:
                    return i
            raise NotAFacet(f"{format_monomial(f, self.vars)} is not a facet")
        i = int(f)
        if not 0 <= i < len(self.facets):
            raise NotAFacet(f"facet index {i} out of range")
        return i


def normalize_generators(
    raw: Sequence[SqfMonomial], vars: VariableTable
) -> MonomialIdeal:
    """Build a MonomialIdeal from an arbitrary generator list.

    Deduplicates, drops generators divisible by another (keeping the
    divisibility-minimal ones), sorts canonically, and rejects inputs
    that leave some variable of the table uncovered.
    """
    return _normalize([g.mask for g in raw], vars, refuse_drops=False)


def _normalize(
    masks: list[int], vars: VariableTable, refuse_drops: bool
) -> MonomialIdeal:
    """normalize_generators over the generators' masks; with refuse_drops,
    a repeated or nested generator raises ParseError naming a facet that
    it contains."""
    # a proper divisor has a lower degree and sorts first, as does the
    # first copy of a repeat
    ordered = sorted(masks, key=mask_sort_key)
    if not ordered:
        raise EmptyInput("no generators given")
    full = vars.full_mask
    if any(m & ~full for m in ordered):
        raise ParseError("generator support outside the variable table")
    gens = []
    covered = 0
    for m in ordered:
        if not m:
            # the unit ideal is out of scope: 1 divides everything
            raise ParseError("the monomial 1 is not allowed as a generator")
        for f in gens:
            if not f & ~m:
                if refuse_drops:
                    raise ParseError(
                        f"facet {format_monomial(SqfMonomial(f), vars)} is "
                        f"contained in {format_monomial(SqfMonomial(m), vars)}"
                    )
                break
        else:
            gens.append(m)
            covered |= m
    if covered != full:
        for i in range(len(vars)):
            if not covered >> i & 1:
                raise UncoveredVariable(vars.names[i])
    return MonomialIdeal(vars, map(SqfMonomial, gens))


def facet_complex(I: MonomialIdeal) -> SimplicialComplex:
    """The facet complex of I: one facet per generator, same order.

    I's generators are already minimal and canonical, so the complex is
    built on I itself (``facet_complex(I).ideal is I``) without the
    validation that the constructor gives a facet list.
    """
    delta = SimplicialComplex.__new__(SimplicialComplex)
    delta._set_ideal(I)
    return delta


def facet_ideal(delta: SimplicialComplex) -> MonomialIdeal:
    """The facet ideal of a complex; inverse of :func:`facet_complex`."""
    return delta.ideal


def induced_subideal(I: MonomialIdeal, m: SqfMonomial):
    """Generators of I dividing m, over the variables they use.

    Returns :data:`EMPTY_IDEAL` when no generator divides m.  For
    m in LCM(I) the restricted variable set equals supp(m); in general it
    is the union of the retained supports, which keeps the covering
    invariant intact.
    """
    retained = [g for g in I.gens if g.divides(m)]
    if not retained:
        return EMPTY_IDEAL
    union = 0
    for g in retained:
        union |= g.mask
    support = _indices_of(union)
    position = {v: p for p, v in enumerate(support)}
    sub_vars = VariableTable(
        [I.vars.names[v] for v in support], wide=len(support) > MAX_NARROW_VARS
    )
    sub_gens = [
        SqfMonomial.from_indices(position[v] for v in g.indices())
        for g in retained
    ]
    # index order is preserved by the restriction, so the canonical sort is too
    return MonomialIdeal(sub_vars, sub_gens)


def restrict_monomial(
    m: SqfMonomial, src: VariableTable, dst: VariableTable
) -> SqfMonomial:
    """Re-express m over dst's indices; dst must contain every name used."""
    return SqfMonomial(dst.mask_of(src.names[i] for i in m.indices()))


def private_bits(masks: Sequence[int]) -> list[int]:
    """Each mask minus the union of the others: the bits only it has."""
    once = twice = 0  # the bits seen at least once, and at least twice
    for m in masks:
        twice |= once & m
        once |= m
    return [m & ~twice for m in masks]


def free_vertices(delta: SimplicialComplex, f) -> frozenset[int]:
    """Vertices of facet f lying in no other facet of the complex."""
    i = delta.facet_index(f)
    private = private_bits(delta.ideal.masks)
    return frozenset(_indices_of(private[i]))


def polarize(raw: Sequence[Mapping[str, int]], wide: bool = False) -> MonomialIdeal:
    """Polarize a monomial ideal given as exponent mappings.

    x^e becomes x * x(1) * ... * x(e-1) over fresh variables, interned in
    first-occurrence order.  Square-free input comes back unchanged.  A
    base raised to a power ParseErrors if it already ends in a "(k)"
    suffix, or if one of its copies is spelled like a base of the input.
    """
    if not raw:
        raise EmptyInput("no generators given")
    bases = {base for gen in raw for base in gen}
    names: list[str] = []
    seen: dict[str, int] = {}

    def intern(name: str) -> int:
        if name not in seen:
            seen[name] = len(names)
            names.append(name)
        return seen[name]

    gen_indices: list[list[int]] = []
    for gen in raw:
        indices = []
        for base, exp in gen.items():
            if exp < 1:
                raise ParseError(f"exponent of {base!r} must be >= 1")
            indices.append(intern(base))
            if exp > 1 and base.endswith(")"):
                raise ParseError(f"cannot polarize {base!r}: it ends in an index")
            for copy in range(1, exp):
                name = f"{base}({copy})"
                if name in bases:
                    raise ParseError(
                        f"cannot polarize {base!r}: its copy {name!r} is a variable"
                    )
                indices.append(intern(name))
        gen_indices.append(indices)
    vars = VariableTable(names, wide=wide or len(names) > MAX_NARROW_VARS)
    gens = [SqfMonomial.from_indices(ix) for ix in gen_indices]
    return normalize_generators(gens, vars)


# ---------------------------------------------------------------------------
# input / output formats


def parse_ideal_text(text: str, wide: bool = False) -> MonomialIdeal:
    """One generator per line; variables split on whitespace or '*'.

    Lines starting with '#' are comments.  A variable name is a letter or
    '_' followed by letters, digits or '_', optionally ending in a
    parenthesised index such as x(1); any other token is a ParseError,
    and so is a variable listed twice in one generator.  Variables are
    interned in first-seen order: a map gives each name its bit, and each
    generator's mask is built as its line is read, so a repeat is a bit
    already set in the mask.  The masks go to the normalization directly.
    """
    bits: dict[str, int] = {}  # name -> its bit, in first-seen order
    masks: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        mask = 0
        for tok in line.replace("*", " ").split():
            bit = bits.get(tok)
            if bit is None:
                if not _VARIABLE_NAME.fullmatch(tok):
                    raise ParseError(f"bad variable name {tok!r} on line {lineno}")
                bit = bits[tok] = 1 << len(bits)
            elif mask & bit:
                raise ParseError(
                    f"variable {tok!r} repeated on line {lineno}: "
                    "generators must be square-free"
                )
            mask |= bit
        masks.append(mask)
    if not masks:
        raise EmptyInput("no generators in input")
    return _normalize(masks, VariableTable(bits, wide=wide), refuse_drops=False)


def format_ideal_text(I: MonomialIdeal) -> str:
    return "\n".join(format_monomial(g, I.vars) for g in I.gens)


def parse_ideal_json(data, wide: bool = False) -> MonomialIdeal:
    """{"variables": [names], "generators": [[names or indices], ...]}"""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as e:
            raise ParseError(f"bad JSON: {e}") from None
    if not isinstance(data, dict):
        raise ParseError("JSON ideal must be an object")
    try:
        names = data["variables"]
        raw = data["generators"]
    except KeyError as e:
        raise ParseError(f"missing key {e}") from None
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ParseError("'variables' must be a list of strings")
    for name in names:
        if not _VARIABLE_NAME.fullmatch(name):
            raise ParseError(f"bad variable name {name!r}")
    vars = VariableTable(names, wide=wide)
    if not isinstance(raw, list):
        raise ParseError("'generators' must be a list")
    gens = []
    for entry in raw:
        if not isinstance(entry, list):
            raise ParseError("each generator must be a list")
        if all(type(v) is int for v in entry):  # not bool
            if any(not 0 <= v < len(vars) for v in entry):
                raise ParseError("generator index out of range")
            g = SqfMonomial.from_indices(entry)
        elif all(isinstance(v, str) for v in entry):
            g = SqfMonomial.from_names(vars, entry)
        else:
            raise ParseError("a generator must list all indices or all names")
        if g.degree != len(entry):
            repeated = next(v for k, v in enumerate(entry) if v in entry[:k])
            name = repeated if isinstance(repeated, str) else vars.names[repeated]
            raise ParseError(
                f"generator {entry!r} repeats variable {name!r}: "
                "generators must be square-free"
            )
        gens.append(g)
    if not gens:
        raise EmptyInput("no generators in input")
    return normalize_generators(gens, vars)


def parse_ideal(text: str, wide: bool = False) -> MonomialIdeal:
    """Autodetect JSON vs text format and parse accordingly."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_ideal_json(stripped, wide=wide)
    return parse_ideal_text(text, wide=wide)
