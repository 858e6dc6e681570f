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
                       constant_kappa_directrix, generate, integrate_autonomous,
                       y_of_t)
from .invariants import (InvariantRecord, eight_invariants, gauss_curvature,
                         invariant_k, mean_curvature, oracle_invariants,
                         oracle_second_fundamental)
from .jets import Jet, jet_eval, variable
from .minkowski import LightlikePair, Vec4, lightlike_basis, minkowski_dot
from .profile import (Directrix, ProfileCurve, g_from_f, kappa, kappa_m,
                      validate_profile)
from .surface import (MeridianSurface, NormalFrame, PointCase, TangentFrame,
                      classify_point, embed, first_fundamental_form,
                      normal_frame, tangent_frame)
from .verification import VerificationReport, verify_generated

__version__ = "0.1.0"
