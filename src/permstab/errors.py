"""Exception types shared across the package."""


class PermStabError(Exception):
    """Base class for all errors raised by this package."""


class PermutationParseError(PermStabError, ValueError):
    """Text does not describe a valid permutation of the stated degree."""


class DegreeMismatchError(PermStabError, ValueError):
    """Operands act on point sets of different sizes."""


class BoundExceededError(PermStabError, ValueError):
    """A configured search or enumeration bound was exceeded."""


class GroupTableError(PermStabError, ValueError):
    """A multiplication table violates the group axioms."""


class NotSubgroupError(PermStabError, ValueError):
    """A member set is not a subgroup of the stated parent group."""


class WordError(PermStabError, ValueError):
    """A word references unknown generators or has invalid syntax."""


class SourceMismatchError(PermStabError, ValueError):
    """Two homomorphisms do not share the required source group."""


class NotConjugateError(PermStabError, ValueError):
    """The homomorphisms are not conjugate, so no conjugator exists."""


class NotComparableError(PermStabError, ValueError):
    """The orbit-census order precondition between homomorphisms fails."""


class AmalgamMismatchError(PermStabError, ValueError):
    """The two sides of an amalgam disagree on the common subgroup.

    ``witness`` holds the offending pair of corresponding elements/words.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ZeroMultiplicityError(PermStabError, ZeroDivisionError):
    """A replication-count denominator multiplicity is zero."""


class AlphabetMismatchError(PermStabError, ValueError):
    """Two labeled graphs carry different edge-label alphabets."""


class MalformedInputError(PermStabError, ValueError):
    """An input file is syntactically or semantically invalid."""
