"""Exception hierarchy for the whole package.

Axiom failures carry a small witness (indices into the offending table)
so callers can print exactly where a structure went wrong.
"""
from __future__ import annotations

__all__ = [
    "SchemehallError",
    "HypergroupAxiomError",
    "NoNeutralError",
    "NoInverseError",
    "AssocViolationError",
    "EmptyProductError",
    "ParentMismatchError",
    "EmptyInputError",
    "NotClosedError",
    "NotSubsetError",
    "SchemeTooLargeError",
    "SchemeAxiomError",
    "NotPartitionError",
    "IdentityViolationError",
    "StarViolationError",
    "RegularityViolationError",
    "NotAGroupError",
    "InternalInconsistencyError",
    "NotSolvableError",
    "NotSolvableGroupError",
    "NotPiValencedError",
    "NotHallError",
    "NotClosedPiSubsetError",
    "NoConjugatorFoundError",
    "FormatError",
    "FormatSyntaxError",
    "NotSquareError",
    "LabelGapError",
    "NetworkUnavailableError",
    "UnrecognizedCatalogueFormatError",
    "ChecksumMismatchError",
]


class SchemehallError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# hypergroup axioms and subset algebra

class HypergroupAxiomError(SchemehallError):
    """A table failed one of the hypergroup axioms."""


class NoNeutralError(HypergroupAxiomError):
    pass


class NoInverseError(HypergroupAxiomError):
    pass


class AssocViolationError(HypergroupAxiomError):
    def __init__(self, p: int, q: int, r: int, message: str = ""):
        self.witness = (p, q, r)
        super().__init__(message or f"associativity fails at triple ({p}, {q}, {r})")


class EmptyProductError(HypergroupAxiomError):
    def __init__(self, a: int, b: int):
        self.witness = (a, b)
        super().__init__(f"product of {a} and {b} is empty")


class ParentMismatchError(SchemehallError):
    """Two subsets from different parent structures were combined."""


class EmptyInputError(SchemehallError):
    pass


class NotClosedError(SchemehallError):
    pass


class NotSubsetError(SchemehallError):
    pass


class SchemeTooLargeError(SchemehallError):
    """A relation matrix is above the size bound validation accepts."""


# ---------------------------------------------------------------------------
# association scheme axioms

class SchemeAxiomError(SchemehallError):
    """A relation matrix failed one of the scheme axioms."""


class NotPartitionError(SchemeAxiomError):
    pass


class IdentityViolationError(SchemeAxiomError):
    def __init__(self, x: int, y: int, message: str = ""):
        self.witness = (x, y)
        super().__init__(message or f"identity relation misplaced at ({x}, {y})")


class StarViolationError(SchemeAxiomError):
    pass


class RegularityViolationError(SchemeAxiomError):
    def __init__(self, p: int, q: int, r: int, y: int, z: int):
        self.witness = (p, q, r, y, z)
        super().__init__(
            f"intersection number for ({p}, {q}) over relation {r} is not "
            f"constant; first deviation at point pair ({y}, {z})"
        )


class NotAGroupError(SchemehallError):
    pass


class InternalInconsistencyError(SchemehallError):
    """A property that is guaranteed by theory failed on concrete data.
    Each check that raises it fires in some test, none repeats a proof
    already made on the same object, and none is raised for a caller's
    input."""


# ---------------------------------------------------------------------------
# solvability and the Hall machinery

class NotSolvableError(SchemehallError):
    pass


class NotSolvableGroupError(SchemehallError):
    pass


class NotPiValencedError(SchemehallError):
    pass


class NotHallError(SchemehallError):
    pass


class NotClosedPiSubsetError(SchemehallError):
    pass


class NoConjugatorFoundError(SchemehallError):
    pass


# ---------------------------------------------------------------------------
# file formats, catalogue access, CLI

class FormatError(SchemehallError):
    """Base class for text format problems."""


class FormatSyntaxError(FormatError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class NotSquareError(FormatError):
    pass


class LabelGapError(FormatError):
    pass


class NetworkUnavailableError(SchemehallError):
    pass


class UnrecognizedCatalogueFormatError(SchemehallError):
    pass


class ChecksumMismatchError(SchemehallError):
    pass
