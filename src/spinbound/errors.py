"""Exception types shared across the package."""


class SpinboundError(Exception):
    """Base class for all package errors."""


class ConfigError(SpinboundError):
    """Invalid configuration (bad JSON, unknown keys, out-of-range values).

    Carries the full list of validation problems in ``errors``.
    """

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class NumericalInputError(SpinboundError):
    """An evaluator produced non-finite values, or an input is numerically unusable."""


class SearchDomainError(SpinboundError):
    """A minimization failed to bracket its minimum inside the search domain."""


class ResolutionError(SpinboundError):
    """A quadrature would exceed its node budget, or a table overflows."""

    def __init__(self, message, attempted_nodes=None):
        super().__init__(message)
        self.attempted_nodes = attempted_nodes


class CapacityError(SpinboundError):
    """A request exceeds a hard size cap (point count, mode count)."""


class SupportError(SpinboundError):
    """A measure's support is not contained in the required spatial domain."""


class QuadratureFailureError(SpinboundError):
    """A quadrature did not converge (non-integrable density, etc.)."""
