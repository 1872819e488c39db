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
    """A matrix handed to renormalize is farther from the group than its
    Gram-defect guard RENORM_GUARD, or has a non-finite (NaN or inf) entry.

    renormalize takes one Newton-Schulz step, and RENORM_GUARD is above
    what the orbit engines reach from any pair RepPoint accepts, so this
    error means a matrix farther off the group, or a broken engine.
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


class InvalidArgumentError(Su3LabError, ValueError):
    """An argument outside its documented domain: an unknown letter, curve
    or trace part, a non-finite flow time, malformed letter indices, or a
    homology matrix without determinant 1.  Also a ValueError, as these
    refusals were before they were typed."""
