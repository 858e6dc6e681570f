"""Exception types shared across the package."""

__all__ = ["MeridianError", "DomainError", "ExpressionError", "ProfileInvariantError",
           "SpecMismatchError", "DegenerateDirectrixError", "FlatPointError",
           "MarginallyTrappedError", "QuadratureLimitError"]


class MeridianError(Exception):
    """Base class for all package errors."""


class DomainError(MeridianError):
    """Evaluation requested outside the valid domain of a function or surface."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class ExpressionError(MeridianError):
    """Malformed expression text; carries the offending token."""

    def __init__(self, message, token=None):
        super().__init__(message)
        self.token = token


class DegenerateDirectrixError(MeridianError):
    """phi_dot^2 + phi^2 vanished at the evaluation point."""


class ProfileInvariantError(MeridianError):
    """A profile invariant (f > 0, f' != 0) failed where it was required."""


class FlatPointError(MeridianError):
    """Geometric frame / invariants requested at a flat point (kappa = 0 or kappa_m = 0)."""


class MarginallyTrappedError(MeridianError):
    """<H,H> = 0 with H != 0: outside the analytic scope of the invariant formulas."""


class SpecMismatchError(MeridianError):
    """Family spec parameters inconsistent (e.g. directrix curvature not the required constant)."""


class QuadratureLimitError(MeridianError):
    """g cannot be given to its tolerance: g is not resolvable at a point
    next to a zero of f' (one ulp of the abscissa moves g by more than the
    tolerance), a Dormand-Prince path's accumulated g error estimate
    exceeds the tolerance, or the quadrature pass of g stopped at the step
    floor before reaching the query."""
