"""Exception hierarchy shared by all filtstab modules."""

from __future__ import annotations


class FiltstabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(FiltstabError):
    """Operands live in vector spaces of different ambient dimension."""


class InvariantError(FiltstabError):
    """A value violates one of its structural invariants."""


class CoverageError(FiltstabError):
    """A plane arrangement lists more shared points than two curves can meet in."""


class ShapeMismatchError(FiltstabError):
    """Table or configuration shapes do not line up (component counts, ranks)."""


class MissingCrossingTableError(FiltstabError):
    """A crossing point of the divisor has no dimension table."""


class UnbalancedFiltrationError(FiltstabError):
    """An operation that requires balanced filtrations got an unbalanced one."""


class ImproperSubspaceError(FiltstabError):
    """The zero subspace or the full space where a proper subspace is required."""


class DegenerateDegreeError(FiltstabError):
    """A component carrying nontrivial filtration data has non-positive degree.

    ``component`` is the index of that component in its configuration.
    """

    def __init__(self, message: str, component: int):
        super().__init__(message)
        self.component = component


class SingularFormError(FiltstabError):
    """The norm form is not positive definite on the balance subspace."""


class EmptyConeError(FiltstabError):
    """A flag shape's stability cone is proven, exactly, to hold no balanced weights.

    The same exact test finds a point inside every other cone, so the float
    solve never runs on an empty one and has no failure of its own.
    """


class NoStableConfigurationError(FiltstabError):
    """The search exhausted its budget without finding a stable configuration."""

    def __init__(self, message: str, search_log: dict | None = None):
        super().__init__(message)
        self.search_log = dict(search_log or {})


class BGIViolationError(FiltstabError):
    """A configuration certified stable came out with negative second Chern
    number, contradicting the Bogomolov-Gieseker inequality.

    ``witness`` is the configuration's Hodge witness, an integer y proving
    that no surface has its numbers, so the inequality need not hold; when it
    is None, the violation indicates a bug in the caller or in this package.
    """

    def __init__(self, message: str, witness: tuple[int, ...] | None = None):
        super().__init__(message)
        self.witness = witness


class DocumentError(FiltstabError):
    """An input document problem, located by a path within the document."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class DocumentParseError(DocumentError):
    """Malformed document: wrong types, bad literals, missing keys."""


class DocumentValidationError(DocumentError):
    """Well-formed document whose content violates a structural invariant."""
