"""Spacelike meridian surfaces of parabolic type in Minkowski 4-space:
construction, closed-form curvature invariants, classified families and
finite-difference verification.

Only the errors load with the package; every other public name loads its
submodule on first use (PEP 562), so a command loads what it runs."""

from .errors import (DegenerateDirectrixError, DomainError, ExpressionError,
                     FlatPointError, MarginallyTrappedError, MeridianError,
                     ProfileInvariantError, QuadratureLimitError,
                     SpecMismatchError)

# public name -> the submodule that defines it
_LAZY = {
    "compile_expression": "expressions",
    **dict.fromkeys(("Chen", "ConstantGauss", "ConstantK", "ConstantMean",
                     "FamilySpec", "GeneratedSurface", "ParallelA", "ParallelB",
                     "constant_kappa_directrix", "generate",
                     "integrate_autonomous"), "families"),
    **dict.fromkeys(("InvariantRecord", "StencilPass", "eight_invariants",
                     "oracle_invariants"), "invariants"),
    **dict.fromkeys(("Jet", "jet_eval", "variable"), "jets"),
    **dict.fromkeys(("Vec4", "minkowski_dot"), "minkowski"),
    **dict.fromkeys(("Directrix", "ProfileCurve", "g_from_f"), "profile"),
    **dict.fromkeys(("MeridianSurface", "PointCase", "PointFrames", "embed",
                     "frames", "point_data"), "surface"),
    **dict.fromkeys(("VerificationReport", "verify_generated"), "verification"),
}

__all__ = ["DegenerateDirectrixError", "DomainError", "ExpressionError",
           "FlatPointError", "MarginallyTrappedError", "MeridianError",
           "ProfileInvariantError", "QuadratureLimitError", "SpecMismatchError",
           *_LAZY]

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module  # a lazy name's first use loads its submodule
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value
