"""Exception hierarchy shared across the package."""


class MwspecError(Exception):
    """Base class for all package errors."""


class NonSquareError(MwspecError):
    pass


class NotSymmetricError(MwspecError):
    pass


class NoConvergenceError(MwspecError):
    pass


class NonFiniteError(MwspecError, ValueError):
    """A matrix with NaN or infinite entries reached a numerical routine."""


class NotPSDError(MwspecError):
    pass


class SingularMatrixError(MwspecError):
    pass


class SingularPivotError(MwspecError):
    pass


class DimensionMismatchError(MwspecError):
    pass


class BadIndexError(MwspecError):
    pass


class ZeroVectorError(MwspecError):
    pass


class InvalidSizeError(MwspecError):
    pass


class InvalidProfileError(MwspecError):
    pass


class ConfigError(MwspecError, ValueError):
    """A bad argument: a size, seed, tolerance, beta or verify mode."""


class InstanceSyntaxError(MwspecError):
    """Malformed instance text (bad JSON, bad rational literal)."""


class SchemaError(MwspecError):
    """Well-formed JSON that does not match the instance schema."""


class ValidationError(MwspecError):
    """Instance parses but fails structural validation."""
