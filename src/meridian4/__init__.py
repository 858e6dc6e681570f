"""Spacelike meridian surfaces of parabolic type in Minkowski 4-space:
construction, closed-form curvature invariants, classified families and
finite-difference verification."""

from .errors import (DegenerateDirectrixError, DomainError, ExpressionError,
                     FlatPointError, MarginallyTrappedError, MeridianError,
                     ProfileInvariantError, QuadratureLimitError,
                     SpecMismatchError)
from .expressions import compile_expression
from .families import (Chen, ConstantGauss, ConstantK, ConstantMean,
                       FamilySpec, GeneratedSurface, ParallelA, ParallelB,
                       constant_kappa_directrix, generate, integrate_autonomous)
from .invariants import (InvariantRecord, StencilPass, eight_invariants,
                         oracle_invariants)
from .jets import Jet, jet_eval, variable
from .minkowski import Vec4, minkowski_dot
from .profile import Directrix, ProfileCurve, g_from_f
from .surface import (MeridianSurface, PointCase, PointFrames, embed, frames,
                      point_data)
from .verification import VerificationReport, verify_generated

__version__ = "0.1.0"
