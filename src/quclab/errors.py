"""Exception taxonomy shared by all modules."""


class QuclabError(Exception):
    """Base class for all package errors."""


class InputError(QuclabError, ValueError):
    """Invalid argument values or malformed configuration."""


class PreconditionError(InputError):
    """A documented operation precondition does not hold for the input."""


class NumericError(QuclabError, RuntimeError):
    """An iterative or quadrature routine failed to reach its tolerance."""

