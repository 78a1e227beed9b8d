"""Minimal covers, well ordered covers, splits, and reorderings.

A cover is a set of generators whose supports reach every variable.  An
ordered cover (m_1, ..., m_s) is well ordered when every generator m'
outside it has a witness position j <= s-1 with
m_j | lcm(m', m_{j+1}, ..., m_s).  Well ordered covers certify nonzero
Betti numbers, and splitting one at position a yields lattice
complements whose halves cover induced subideals.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Sequence

from .core import (
    MonomialIdeal,
    SqfMonomial,
    _indices_of,
    format_monomial,
    mask_sort_key,
    private_bits,
)
from . import errors
from .errors import InvalidSplit, NotWellOrdered, RotationOutOfRange
from .lattice import complementary

DEFAULT_SEARCH_BUDGET = 10**6

CONDITION_INDUCED_EQUALS_PREFIX = "induced_equals_prefix"
CONDITION_COPRIME_PARTS = "coprime_parts"


class Cover:
    """An unordered facet cover: generator indices whose supports span."""

    __slots__ = ("members",)

    def __init__(self, members: Iterable[int]):
        self.members = frozenset(members)

    def __eq__(self, other) -> bool:
        return isinstance(other, Cover) and self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(sorted(self.members))

    def __repr__(self) -> str:
        return f"Cover({sorted(self.members)})"


@dataclasses.dataclass(slots=True, repr=False, unsafe_hash=True)
class WellOrderedCover:
    """An ordered minimal cover with per-non-member witnesses.

    witnesses pairs each non-member generator index with the largest
    position j (1-based) certifying the divisibility condition; that
    maximum is the alpha value of the generator.
    """

    ideal: MonomialIdeal
    sequence: tuple[int, ...]
    witnesses: tuple[tuple[int, int], ...] = dataclasses.field(compare=False)

    def __len__(self) -> int:
        return len(self.sequence)

    def __repr__(self) -> str:
        seq = ", ".join(
            format_monomial(self.ideal.gens[i], self.ideal.vars)
            for i in self.sequence
        )
        return f"WellOrderedCover({seq})"


@dataclasses.dataclass(slots=True, eq=False, repr=False)
class WocCheck:
    """Outcome of the well-ordered decision: truthy iff accepted."""

    ok: bool
    woc: WellOrderedCover | None = None
    reason: str | None = None
    failing: int | None = None

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return f"WocCheck(ok={self.ok}" + (
            ")" if self.ok else f", reason={self.reason!r})"
        )


@dataclasses.dataclass(slots=True, eq=False, repr=False)
class SplitCertificate:
    """Everything the splitting machinery asserts about one split.

    m and m2 are the prefix and suffix lcms; they are always lattice
    complements and the suffix is always a well ordered cover of the
    induced subideal I_[m2].  condition records which sufficient clause
    (if any) applies to the prefix; when it is None the direct prefix
    check still ran and its outcome is prefix_woc_ok.
    """

    ideal: MonomialIdeal
    sequence: tuple[int, ...]
    a: int
    m: SqfMonomial
    m2: SqfMonomial
    complement_ok: bool
    suffix_woc_ok: bool
    prefix_woc_ok: bool
    condition: str | None

    def __repr__(self) -> str:
        vars = self.ideal.vars
        return (
            f"SplitCertificate(a={self.a}, m={format_monomial(self.m, vars)}, "
            f"m2={format_monomial(self.m2, vars)}, condition={self.condition})"
        )


def _covered_mask(masks: Sequence[int], members: Iterable[int]) -> int:
    mask = 0
    for i in members:
        mask |= masks[i]
    return mask


def is_minimal_cover(I: MonomialIdeal, cover) -> bool:
    """Covers every variable, and every member keeps a private variable.

    A cover is inclusion-minimal exactly when each member contains some
    variable no other member reaches.  An index that names no generator
    makes no cover.
    """
    members = sorted(cover.members if isinstance(cover, Cover) else set(cover))
    if any(not 0 <= i < len(I.gens) for i in members):
        return False
    ok, _, failing = _ordered_cover([g.mask for g in I.gens], members, I.vars.full_mask)
    return ok or failing is not None  # only a minimal cover reaches the witnesses


def _ordered_cover(
    masks: Sequence[int], seq: Sequence[int], target: int
) -> tuple[bool, list[tuple[int, int]], int | None]:
    """Decide whether seq is a well ordered cover of I_[target], on I's masks.

    I_[target] keeps the generators dividing target, over its variables,
    and that restriction keeps every mask inclusion tested here.  Returns
    (ok, witnesses, failing): the maximal j (the alpha value) of each
    non-member dividing target, and the first such non-member with none.
    Both stay empty unless seq is a minimal cover of I_[target]: lcm
    target, and each member keeping a private bit.
    """
    steps = []  # (j, mask of m_j, mask of lcm(m_{j+1}, ..., m_s))
    once = twice = 0  # bits of at least one, and of two, members after m_k
    for k in range(len(seq) - 1, -1, -1):
        m_k = masks[seq[k]]
        if once:  # no generator is 1, so this skips only the last member
            steps.append((k + 1, m_k, once))
        twice |= once & m_k
        once |= m_k
    if once != target:
        return False, [], None
    for i in seq:  # private bits, as in core.private_bits
        if not masks[i] & ~twice:
            return False, [], None
    members = set(seq)
    witnesses = []
    for n, n_mask in enumerate(masks):
        if n in members or n_mask & ~target:
            continue
        for j, m_j, after in steps:
            if not m_j & ~(n_mask | after):
                witnesses.append((n, j))
                break
        else:
            return False, witnesses, n
    return True, witnesses, None


def is_well_ordered_cover(I: MonomialIdeal, seq: Sequence[int]) -> WocCheck:
    """Decide whether seq is a well ordered cover, with witnesses."""
    seq = tuple(int(i) for i in seq)
    if len(set(seq)) != len(seq):
        return WocCheck(False, reason="repeated generator in sequence")
    if any(not 0 <= i < len(I.gens) for i in seq):
        return WocCheck(False, reason="generator index out of range")
    ok, witnesses, failing = _ordered_cover(
        [g.mask for g in I.gens], seq, I.vars.full_mask
    )
    if failing is not None:
        name = format_monomial(I.gens[failing], I.vars)
        reason = f"no witness position for non-member {name}"
        return WocCheck(False, reason=reason, failing=failing)
    if not ok:
        return WocCheck(False, reason="not a minimal cover")
    return WocCheck(True, woc=WellOrderedCover(I, seq, tuple(witnesses)))


def enumerate_minimal_covers(
    I: MonomialIdeal, budget: int = DEFAULT_SEARCH_BUDGET
) -> list[Cover]:
    """All minimal covers, by branching on the lowest uncovered variable.

    A branch dies as soon as some chosen member loses its last private
    variable, since later additions can never restore privacy.  The
    budget counts the states searched; exceeding it raises
    SizeLimitExceeded with the covers found so far attached.
    """
    found: list[int] = []

    def covers() -> list[Cover]:
        return [Cover(_indices_of(c)) for c in _by_size(found)]

    spend = errors.budget(budget, "minimal cover enumeration", covers)
    _minimal_covers(I, spend, found)
    return covers()


def _minimal_covers(
    I: MonomialIdeal, spend: Callable[[], None], found: list[int]
) -> None:
    """Append each minimal cover to found, as a mask of generator indices.

    spend() is called once per state, before the state is searched, so
    a spend() that raises can read the covers found so far.  A generator
    tried for the lowest uncovered variable is barred from the states
    below its later siblings, so each cover is reached once, along the
    path that takes its lowest member holding that variable each time.
    """
    masks = [g.mask for g in I.gens]
    _extend_cover(masks, I.vars.full_mask, spend, found, 0, 0, [], 0)


def _extend_cover(
    masks: Sequence[int],
    full: int,
    spend: Callable[[], None],
    found: list[int],
    chosen: int,
    covered: int,
    private: list[int],
    barred: int,
) -> None:
    """One state of the minimal cover DFS of _minimal_covers.

    chosen is the mask of the members so far and covered their bits;
    private[k] holds the bits that only the k-th member reaches, and
    barred the generators this state may not add.
    """
    spend()
    if covered == full:
        found.append(chosen)
        return
    v = (~covered & full) & -(~covered & full)  # lowest uncovered bit
    for g, gmask in enumerate(masks):
        # v is uncovered, so a chosen generator never holds it
        if not gmask & v or barred >> g & 1:
            continue
        new_private = [p & ~gmask for p in private]
        if not all(new_private):
            continue
        new_private.append(gmask & ~covered)
        _extend_cover(
            masks, full, spend, found,
            chosen | 1 << g, covered | gmask, new_private, barred,
        )
        barred |= 1 << g


def _by_size(found: Iterable[int]) -> list[int]:
    """Cover masks ordered by size, then by their sorted members."""
    return sorted(found, key=mask_sort_key)


def find_well_ordered_covers(
    I: MonomialIdeal,
    size: int | None = None,
    first_only: bool = False,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> list[WellOrderedCover]:
    """Search orderings of every minimal cover for well ordered ones.

    The witness condition is suffix-determined, so the DFS fills the
    sequence from the last position backward; a placement at position
    j <= s-1 can discharge non-members, and states are memoized on the
    (remaining members, undischarged non-members) pair, which captures
    everything the future depends on.  Both are bitmasks over generator
    indices, so the memo key is two ints; j is the number of members
    remaining, and they are tried lowest index first, the ascending order
    of the sorted cover.

    A branch that leaves a non-member n undischarged, with no member left
    to place that could ever discharge it, is cut before its child state
    is entered.  m_j | lcm(n, m_{j+1}, ..., m_s) needs n to hold every
    variable of m_j that the later members lack, and they lack its
    private variables: so only the members whose private variables n all
    holds, can[n], ever discharge n, and m_s discharges nothing.  A cut
    branch has no completion, so the sequences, their order and their
    witnesses are those of the uncut search; it spends no budget, and
    only the count of states falls.  A cover with a non-member of empty
    can[n] spends one state, its root.

    A memo entry is (count, edges): count is the number of completed
    heads (orderings of the members at positions 1..j) below the state,
    and each edge (g, j, discharged, child) places g at position j, lists
    the (n, j) witnesses that placement discharges, and leads to the
    child state's entry; an edge is kept only when its child completes.
    With first_only each state keeps its first such edge, so the entries
    form a chain and the result is the first sequence of the full search.
    After a cover's search, one depth-first walk over the edges writes g
    at position j of a sequence buffer and each discharged pair at the
    non-member's rank in a witness buffer, and builds one
    WellOrderedCover per leaf, in the search's order.  Positions are
    filled downward, so a non-member leaves the undischarged set at its
    maximal witness, on exactly one edge of each path: the buffer holds
    the alpha values in non-member order.

    So a sequence is checked through its edges, each once, when its memo
    entry is built: an edge takes one member out of the remaining set, so
    a completed path permutes the cover.  For each n an edge discharges,
    0 < j < s and m_j | lcm(n, m_{j+1}, ..., m_s) are tested on the raw
    masks, and a cover that emits a sequence is decided minimal once;
    maximality of j rests on the downward fill and is not rechecked.

    One budget counts the whole call: each state of the minimal cover
    enumeration, each state of the ordering search, and, for each edge,
    its child's count, so a state is charged once per head it extends by
    one member.  Exceeding it raises SizeLimitExceeded with the well
    ordered covers of the covers already walked attached.
    """
    masks = [g.mask for g in I.gens]
    everyone = (1 << len(masks)) - 1
    results: list[WellOrderedCover] = []
    spend = errors.budget(budget, "well ordered cover search", lambda: list(results))
    found: list[int] = []
    _minimal_covers(I, spend, found)
    for cover in _by_size(found):
        s = cover.bit_count()
        if size is not None and s != size:
            continue
        members = _indices_of(cover)
        non_members = _indices_of(everyone ^ cover)

        # can[n]: the members whose private variables n all holds, the only
        # members that can discharge n
        can = [0] * len(masks)
        for g, private in zip(members, private_bits([masks[g] for g in members])):
            for n in non_members:
                if not private & ~masks[n]:
                    can[n] |= 1 << g

        search = (masks, can, s, {}, spend, first_only)
        root = _orderings(cover, everyone ^ cover, 0, search)
        emitted = root[0]
        assert not emitted or is_minimal_cover(I, members), "emitting cover not minimal"
        if not emitted:
            continue
        if root[1]:
            rank = {n: r for r, n in enumerate(non_members)}
            _walk(I, root, [0] * s, [None] * len(non_members), rank, results)
        else:  # the empty sequence covers an ideal without variables
            results.append(WellOrderedCover(I, (), ()))
        if first_only:
            return results

    return results


_LEAF = (1, ())  # the entry of a completed head: one, with no edge below
_DEAD = (0, ())


def _orderings(remaining: int, unsat: int, placed: int, search: tuple) -> tuple:
    """The memo entry (count, edges) of one state of the ordering search.

    remaining and unsat are the state's key, placed the mask of the
    members at positions j+1..s; search holds (masks, can, s, memo,
    spend, first_only) for the cover.  Children are looked up in the memo
    before they are entered.
    """
    if not remaining:
        return _DEAD if unsat else _LEAF
    masks, can, s, memo, spend, first_only = search
    spend()
    j = remaining.bit_count()
    edges = []
    count = 0
    rest = remaining
    while rest:
        bit = rest & -rest
        rest ^= bit
        g = bit.bit_length() - 1
        left = remaining ^ bit
        # m_j | lcm(n, placed members) iff n holds the bits of m_j that no
        # placed member does; m_s discharges nothing, and no n holds every
        # bit of -1
        fresh = masks[g] & ~placed if j < s else -1
        new_unsat = u = unsat
        while u:
            nbit = u & -u
            u ^= nbit
            n = nbit.bit_length() - 1
            if not fresh & ~masks[n]:
                new_unsat ^= nbit
            elif not can[n] & left:
                break  # no member left to place can discharge n
        else:
            key = (left, new_unsat)
            child = memo.get(key)
            if child is None:
                child = _orderings(left, new_unsat, placed | masks[g], search)
                memo[key] = child
            if child[0]:
                discharged = tuple((n, j) for n in _indices_of(unsat ^ new_unsat))
                assert all(
                    0 < j < s and not masks[g] & ~(masks[n] | placed)
                    for n, _ in discharged
                ), "edge fails its witness check"
                edges.append((g, j, discharged, child))
                count += child[0]
                spend(child[0])
                if first_only:
                    break
    return (count, tuple(edges))


def _walk(
    I: MonomialIdeal,
    entry: tuple,
    seq: list[int],
    wit: list,
    rank: dict[int, int],
    results: list[WellOrderedCover],
) -> None:
    """Append the WellOrderedCover of each path below entry to results.

    seq and wit are the buffers of the path so far: each edge writes its
    member at its position and its discharged pairs at their non-members'
    ranks, so at a leaf every slot holds the path's own value.  The
    child of an edge at position 2 has one member left, so one edge, at
    position 1 and to a leaf: it is written here, not entered.
    """
    for g, j, discharged, child in entry[1]:
        seq[j - 1] = g
        for pair in discharged:
            wit[rank[pair[0]]] = pair
        if j > 2:
            _walk(I, child, seq, wit, rank, results)
            continue
        if j == 2:
            ((seq[0], _, last, _),) = child[1]
            for pair in last:
                wit[rank[pair[0]]] = pair
        results.append(WellOrderedCover(I, tuple(seq), tuple(wit)))


def _as_cover(I: MonomialIdeal, woc) -> WellOrderedCover:
    """Accept a WellOrderedCover of I or a raw index sequence; validate."""
    if isinstance(woc, WellOrderedCover):
        if woc.ideal is not I and woc.ideal != I:
            raise NotWellOrdered("the cover was built for another ideal")
        return woc
    check = is_well_ordered_cover(I, tuple(woc))
    if not check.ok:
        raise NotWellOrdered(check.reason or "not a well ordered cover")
    return check.woc


def split_certificate(I: MonomialIdeal, woc, a: int) -> SplitCertificate:
    """Split an ordered cover after position a and certify both halves.

    The prefix/suffix lcms are lattice complements, and the suffix is a
    well ordered cover of I_[m2]; both facts are theorem-backed, so a
    failure here is an internal error, not a negative answer.  The prefix
    is checked against I_[m] directly, and condition records which
    sufficient clause applies (None when neither does, which is not a
    refutation).  Both halves are decided on I's own generator masks.
    """
    seq = _as_cover(I, woc).sequence
    s = len(seq)
    if not 1 <= a <= s - 1:
        raise InvalidSplit(f"split position {a} outside 1..{s - 1}")
    prefix, suffix = seq[:a], seq[a:]
    masks = [g.mask for g in I.gens]
    m = SqfMonomial(_covered_mask(masks, prefix))
    m2 = SqfMonomial(_covered_mask(masks, suffix))
    # both are lcms of generator subsets, hence lattice elements
    complement_ok = complementary(I, m, m2)
    assert complement_ok, "split halves failed lattice complementation"

    suffix_woc_ok = _ordered_cover(masks, suffix, m2.mask)[0]
    assert suffix_woc_ok, "suffix failed to cover its induced subideal"
    prefix_woc_ok = _ordered_cover(masks, prefix, m.mask)[0]

    # the prefix members divide m, so I_[m] is the prefix iff nothing else does
    retained = sum(1 for g in masks if not g & ~m.mask)
    if retained == a:
        condition = CONDITION_INDUCED_EQUALS_PREFIX
    elif m.gcd(m2).is_one:
        condition = CONDITION_COPRIME_PARTS
    else:
        condition = None
    if condition is not None:
        assert prefix_woc_ok, "sufficient condition held but prefix check failed"
    return SplitCertificate(
        I, seq, a, m, m2, complement_ok, suffix_woc_ok, prefix_woc_ok, condition
    )


def alpha_values(I: MonomialIdeal, woc) -> tuple[tuple[tuple[int, int], ...], int]:
    """Per-non-member alpha values and their minimum ell.

    alpha_k = max{j : m_j | lcm(n_k, m_{j+1}, ..., m_s)}, with the
    non-members n_k enumerated in canonical generator order.  With no
    non-members the minimum is vacuous and ell = s by convention.  The
    alpha values are the cover's witnesses, which record the maximal j.
    """
    woc = _as_cover(I, woc)
    ell = min((a for _, a in woc.witnesses), default=len(woc))
    return woc.witnesses, ell


def rotate_cover(woc: WellOrderedCover, i: int) -> tuple[int, ...]:
    """Rotate to (m_i, ..., m_s, m_1, ..., m_{i-1}); valid for 2 <= i <= ell.

    Outside that interval the rotation is not certified (and can genuinely
    fail to be well ordered), so it is refused.
    """
    _, ell = alpha_values(woc.ideal, woc)
    if not 2 <= i <= ell:
        raise RotationOutOfRange(f"rotation index {i} outside [2, {ell}]")
    seq = woc.sequence
    return seq[i - 1 :] + seq[: i - 1]
