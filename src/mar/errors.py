"""Exception types shared across the package."""


class MarError(Exception):
    """Base class for every error raised by this package."""


class DuplicateIdError(MarError):
    """A node or road identifier is declared more than once."""


class DanglingEndpointError(MarError):
    """A road or OD pair references a node that is not declared."""


class UnreachableODError(MarError):
    """An OD pair has no directed path from origin to destination."""


class InvalidParameterError(MarError):
    """A numeric parameter violates its domain constraint."""


class NoPathFoundError(MarError):
    """Path enumeration produced no path for an OD pair."""


class DimensionMismatchError(MarError):
    """A flow or cost vector has the wrong length for the network."""


class NegativeFlowError(MarError):
    """A flow argument is negative."""


class NegativeInputError(MarError):
    """A physical quantity that must be nonnegative is negative."""


class ZeroCostError(MarError):
    """Social cost is zero while demand is positive; gap ratios are undefined."""


class InvalidSigmaError(MarError):
    """Polynomial degree below 1."""


class ZeroReferenceError(MarError):
    """Reference flow pair (v, w) sums to zero."""


class InvalidOrderError(MarError):
    """Arguments violate a required ordering (expected f <= g)."""


class TooLargeError(MarError):
    """Instance exceeds the brute-force enumeration guard."""


class SchemaError(MarError):
    """Scenario text is structurally invalid (unknown field, wrong type, missing field)."""


class InvalidSweepParameterError(MarError):
    """Sweep references an unknown parameter or an invalid range."""
