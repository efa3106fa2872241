"""Exception taxonomy.

Everything raised on purpose by this package derives from FemlabError, so
CLI code can catch one base class and map it to exit codes.
"""


class FemlabError(Exception):
    """Base class for all package errors."""


class ConvexityViolation(FemlabError):
    """Node values are not convex against the declared end slopes."""


class SlopeOutOfPolytope(FemlabError):
    """An end slope leaves the moment polytope."""


class EmptyRooftop(FemlabError):
    """Dual domains are disjoint: no common convex minorant exists."""


class IntervalOutOfPolytope(FemlabError):
    """A singularity interval Q leaves the moment polytope."""


class GridMismatch(FemlabError):
    """Operands live on grids with different polytopes."""


class BadReference(FemlabError):
    """Reference potential does not span the moment polytope."""


class BadExponent(FemlabError):
    """Darboux exponent outside 0..n, or a dimension below one."""


class NotNormalized(FemlabError):
    """Entropy input measure does not have total mass one."""


class SingularityMismatch(FemlabError):
    """Potential is not in the context's minimal-singularity sector."""


class NotComparable(FemlabError):
    """Neither u <= v nor v <= u pointwise."""


class EmptyFamily(FemlabError):
    """An operation that needs at least one member got none."""


class PreconditionViolated(FemlabError):
    """A documented hypothesis of an operation fails on the given input."""


class NotTotal(FemlabError):
    """A correspondence misses some point on one side."""


class TooLarge(FemlabError):
    """Exact brute force refused beyond its size cap."""


class ScheduleInvalid(FemlabError):
    """A family schedule is not strictly monotone or misses its limit."""


class UnknownSuite(FemlabError):
    """Suite name outside the published registry."""


class ParseError(FemlabError):
    """Scenario file is not valid JSON."""


class ValidationError(FemlabError):
    """Scenario content fails schema or semantic validation."""


class AssertionFailed(FemlabError):
    """Scenario assertion blocks failed; carries one witness per failed block."""

    def __init__(self, message: str, witnesses):
        super().__init__(message)
        self.witnesses = list(witnesses)
