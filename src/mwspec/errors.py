"""Exception hierarchy shared across the package.

Every error is a `MwspecError`, of one of three kinds:
  - a bad argument: `ConfigError`;
  - a bad instance: `InstanceSyntaxError`, `SchemaError`, `ValidationError`;
  - a numerical failure: the other classes, whose names a report's evidence
    carries.
"""


class MwspecError(Exception):
    """Base class for all package errors."""


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


class ConfigError(MwspecError, ValueError):
    """A bad argument: a size, seed, weight profile, beta, verify mode, block
    index or index set, vector, matrix shape, a graph's endpoint array or
    weight stack of the wrong shape, a graph with no edges or with float
    weights only handed to an operator that needs them, or a corrupt entry
    outside D or one that scaling leaves unchanged."""


class InstanceSyntaxError(MwspecError):
    """Malformed instance text (bad JSON, bad rational literal)."""


class SchemaError(MwspecError):
    """Well-formed JSON that does not match the instance schema."""


class ValidationError(MwspecError):
    """Instance parses but fails structural validation."""
