"""Typed exceptions shared across the package.

Every error raised on purpose derives from Su3LabError so callers (and the
command line front end) can distinguish domain failures from genuine bugs.
"""


class Su3LabError(Exception):
    """Base class for all errors raised deliberately by this package."""


class InvalidGroupElementError(Su3LabError):
    """A matrix that should be special unitary is not, beyond tolerance."""


class InvalidAlgebraError(Su3LabError):
    """A matrix that should be traceless anti-Hermitian is not."""


class NonRegularElementError(Su3LabError):
    """An operation requiring three distinct eigenvalues got a degenerate one."""


class DriftExplosionError(Su3LabError):
    """A matrix drifted too far from the group to be renormalized, or has
    a non-finite (NaN or inf) entry.

    This signals a bug in an orbit engine, not a need for more frequent
    renormalization: the per-step drift budget keeps honest orbits many
    orders of magnitude inside the guard threshold.
    """


class FiberMismatchError(Su3LabError):
    """A pair (a, b) does not lie on the fiber it claims, beyond tolerance."""


class TrivialFlowError(Su3LabError):
    """A twist flow was requested along the boundary curve.

    The boundary trace is constant on every fiber, so its flow fixes each
    point; asking for it is almost certainly a caller mistake.
    """


class TraceDomainError(Su3LabError):
    """A complex number used as a trace value lies outside the trace domain."""


class NonHyperbolicWordError(Su3LabError):
    """A twist word whose homology action is not hyperbolic was supplied
    where a hyperbolic one is required."""


class CentralFiberError(Su3LabError):
    """A central fiber label was used with an operation that needs a
    non-central one (or vice versa); the message names the right entry point."""


class ConfigError(Su3LabError):
    """A command line flag or experiment config file could not be used."""
