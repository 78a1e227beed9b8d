"""Exception taxonomy shared across the package.

Every domain failure raises a subclass of :class:`SqfBettiError`, so
callers (and the CLI) can distinguish bad input from genuine bugs.
Budget exhaustion is separate from the rest: it carries whatever
partial results were available when the cap was hit.
"""

from __future__ import annotations

from typing import Callable


class SqfBettiError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(SqfBettiError):
    """Malformed ideal input (text or JSON)."""


class EmptyInput(ParseError):
    """An ideal was given with no generators at all."""


class UncoveredVariable(SqfBettiError):
    """A variable of the table appears in no generator.

    The cover machinery presumes every variable is covered by some
    generator, so such inputs are rejected outright rather than being
    silently restricted.
    """

    def __init__(self, name: str):
        super().__init__(f"variable {name!r} appears in no generator")
        self.name = name


class TooManyVariables(SqfBettiError):
    """More than 64 variables without opting in to wide mode."""


class NotAFacet(SqfBettiError):
    """A facet argument does not belong to the complex."""


class NotInLattice(SqfBettiError):
    """A monomial argument is not an element of LCM(I)."""


class SameFacet(SqfBettiError):
    """Facet distance asked for a facet against itself."""


class OutOfRange(SqfBettiError):
    """A homological degree outside the table's range."""


class RotationOutOfRange(OutOfRange):
    """Cover rotation index outside the certified interval [2, ell]."""


class NotWellOrdered(SqfBettiError):
    """A sequence that must be a well ordered cover is not one."""


class InvalidSplit(SqfBettiError):
    """Split position outside 1..s-1."""


class InvalidBouquetSet(SqfBettiError):
    """A bouquet-set argument fails its required witnesses."""


class InvalidPartition(SqfBettiError):
    """A bouquet-set partition with an empty side."""


class SizeLimitExceeded(SqfBettiError):
    """A configured cap (lattice size, face count, search budget) was hit.

    ``partial`` holds whatever results were complete when the search was
    abandoned; it is never a complete answer.  The face cap of a single
    complex (taylor_faces_below, homology_below, multigraded_betti)
    raises with ``partial`` None.  betti_table attaches the entries
    (i, m) -> rank it finished, in lattice order, under either cap: its
    lattice cap counts the elements of each block's lattice and the
    multidegrees of the product of the blocks' tables.  build_lattice
    attaches the lattice elements found so far.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


def budget(limit: int, what: str, partial: Callable[[], list]) -> Callable[..., None]:
    """A spend(count=1) that raises SizeLimitExceeded past limit units.

    The message reads "<what> exceeded budget <limit>"; partial() is
    called when the budget runs out, for the results complete so far.
    """
    spent = 0

    def spend(count: int = 1) -> None:
        nonlocal spent
        spent += count
        if spent > limit:
            message = f"{what} exceeded budget {limit}"
            raise SizeLimitExceeded(message, partial=partial())

    return spend
