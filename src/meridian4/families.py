"""Generators for the five classified families of meridian surfaces of
parabolic type: constant Gauss curvature, constant mean curvature, constant
invariant k, Chen surfaces, and parallel normal bundle.

Closed-form profiles are used where the classification gives one (constant
Gauss, parallel case a); the rest integrate the autonomous profile equation
f' = y(f) with RK4 plus Hermite dense output.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

from . import jets
from .errors import DomainError, ProfileInvariantError, SpecMismatchError
from .jets import Jet, jet_eval, jet_function_from_derivs
from .odeint import HermitePath, rk4_path
from .profile import Directrix, ProfileCurve, kappa, validate_profile
from .surface import MeridianSurface

__all__ = [
    "ConstantGauss", "ConstantMean", "ConstantK", "Chen",
    "ParallelA", "ParallelB", "FamilySpec", "GeneratedSurface",
    "y_of_t", "y_function", "integrate_autonomous",
    "constant_kappa_directrix", "generate", "defining_residual",
]

DEFAULT_STEP = 1e-3
MAX_STEP_HALVINGS = 4
RESIDUAL_TOL = 1e-6
KAPPA_MATCH_TOL = 1e-8
_F_BOUND = 1e3        # runaway guard for the autonomous integration
_Y_FLOOR = 1e-9       # |f'| below this ends the realized range


def _require_nonzero(name, value):
    if value == 0:
        raise SpecMismatchError(f"{name} must be nonzero")


def _require_sign(name, value):
    if value not in (1, -1):
        raise SpecMismatchError(f"{name} must be +1 or -1, got {value!r}")


@dataclass(frozen=True)
class ConstantGauss:
    """Surfaces with Gauss curvature K = const != 0; profile in closed form."""
    K: float
    alpha: float
    beta: float

    def __post_init__(self):
        _require_nonzero("K", self.K)

    kappa_constant = None


@dataclass(frozen=True)
class ConstantMean:
    """Surfaces with ||H|| = a = const != 0; needs kappa = const = b."""
    a: float
    b: float
    C: float
    epsilon: int
    branch: int

    def __post_init__(self):
        _require_nonzero("a", self.a)
        _require_nonzero("b", self.b)
        _require_sign("epsilon", self.epsilon)
        _require_sign("branch", self.branch)

    @property
    def kappa_constant(self):
        return self.b


@dataclass(frozen=True)
class ConstantK:
    """Surfaces with invariant k = const = -a^2; needs kappa = const = b."""
    a: float
    b: float
    c: float
    branch: int

    def __post_init__(self):
        _require_nonzero("a", self.a)
        _require_nonzero("b", self.b)
        _require_sign("branch", self.branch)

    @property
    def kappa_constant(self):
        return self.b


@dataclass(frozen=True)
class Chen:
    """Chen surfaces (invariant lambda = 0); needs kappa = const = b."""
    b: float
    c: float
    exponent_branch: int

    def __post_init__(self):
        _require_nonzero("b", self.b)
        _require_nonzero("c", self.c)
        _require_sign("exponent_branch", self.exponent_branch)

    @property
    def kappa_constant(self):
        return self.b


@dataclass(frozen=True)
class ParallelA:
    """Parallel normal bundle, case f f'' + f'^2 = 0: f = sqrt(c u + d),
    g = -(2/(3c^2))(c u + d)^(3/2) + a, all in closed form."""
    c: float
    d: float
    a: float = 0.0
    sign: int = 1

    def __post_init__(self):
        _require_nonzero("c", self.c)
        _require_sign("sign", self.sign)

    kappa_constant = None


@dataclass(frozen=True)
class ParallelB:
    """Parallel normal bundle, case (f f'' + f'^2)/f' = a = const != 0;
    needs kappa = const = b."""
    a: float
    c: float
    b: float

    def __post_init__(self):
        _require_nonzero("a", self.a)
        _require_nonzero("b", self.b)

    @property
    def kappa_constant(self):
        return self.b


FamilySpec = Union[ConstantGauss, ConstantMean, ConstantK, Chen, ParallelA, ParallelB]
_ODE_SPECS = (ConstantMean, ConstantK, Chen, ParallelB)


@dataclass(frozen=True)
class GeneratedSurface:
    surface: MeridianSurface
    spec: FamilySpec
    f_source: str          # "closed-form" | "ode-integrated"
    u_range: tuple         # realized range
    truncated: bool


def _jlog_abs(x: Jet) -> Jet:
    if x.f < 0.0:
        return jets.jlog(-x)
    return jets.jlog(x)


def y_function(spec: FamilySpec) -> Callable[[Jet], Jet]:
    """Jet-capable closed-form y with f' = y(f), for the ODE variants."""
    if isinstance(spec, ConstantMean):
        a, b, C, s = spec.a, spec.b, spec.C, float(spec.branch)
        cap = abs(b) / (2.0 * abs(a))

        if spec.epsilon == 1:
            def y(t):
                tj = t if isinstance(t, Jet) else jets.constant(t)
                if not 0.0 < tj.f < cap - 1e-9:
                    raise DomainError("t outside (0, |b|/2|a|) for the arcsin branch",
                                      t=tj.f)
                root = jets.jsqrt(b * b - 4.0 * a * a * tj * tj)
                return (C + s * 0.5 * tj * root
                        + s * (b * b / (4.0 * a)) * jets.jarcsin(2.0 * a * tj / b)) / tj
        else:
            def y(t):
                tj = t if isinstance(t, Jet) else jets.constant(t)
                if tj.f <= 0.0:
                    raise DomainError("t must be positive", t=tj.f)
                root = jets.jsqrt(b * b + 4.0 * a * a * tj * tj)
                return (C + s * 0.5 * tj * root
                        + s * (b * b / (4.0 * a)) * _jlog_abs(2.0 * a * tj + root)) / tj
        return y
    if isinstance(spec, ConstantK):
        a, b, c, s = spec.a, spec.b, spec.c, float(spec.branch)

        def y(t):
            tj = t if isinstance(t, Jet) else jets.constant(t)
            return c + s * a * tj * tj / (2.0 * b)
        return y
    if isinstance(spec, Chen):
        b, c, s = spec.b, spec.c, spec.exponent_branch

        def y(t):
            tj = t if isinstance(t, Jet) else jets.constant(t)
            if tj.f <= 0.0:
                raise DomainError("t must be positive", t=tj.f)
            tp = jets.jpow(tj, s)
            return (c * c * tp * tp + b * b) / (2.0 * c * tp)
        return y
    if isinstance(spec, ParallelB):
        a, c = spec.a, spec.c

        def y(t):
            tj = t if isinstance(t, Jet) else jets.constant(t)
            if tj.f <= 0.0:
                raise DomainError("t must be positive", t=tj.f)
            return (c + a * tj) / tj
        return y
    raise SpecMismatchError(f"{type(spec).__name__} has no autonomous y(t)")


def y_of_t(spec: FamilySpec, t: float) -> float:
    return jet_eval(y_function(spec), t).f


def integrate_autonomous(y: Callable[[Jet], Jet], f0: float, u_range: tuple,
                         step: float = DEFAULT_STEP) -> HermitePath:
    """Integrate f' = y(f) from the left end of u_range with RK4.

    Truncates (rather than failing) when y's domain would be exited, when y
    approaches zero (f' = 0 would break the profile) or when f runs away.
    The path carries f values; derivative access goes through y's jets.
    """
    y0 = jet_eval(y, f0).f
    if abs(y0) < _Y_FLOOR:
        raise ProfileInvariantError(f"y(f0) = {y0} at f0 = {f0}: f' = 0 at the start")
    sign0 = 1.0 if y0 > 0 else -1.0

    def rhs(state):
        val = jet_eval(y, float(state[0])).f
        return [val]

    def stop(state):
        t = float(state[0])
        if not 0.0 < t < _F_BOUND:
            return True
        try:
            yv = jet_eval(y, t).f
        except DomainError:
            return True
        return abs(yv) < _Y_FLOOR or yv * sign0 < 0 or abs(yv) > _F_BOUND

    return rk4_path(rhs, u_range[0], u_range[1], [f0], step, stop=stop)


def profile_from_path(path: HermitePath, y: Callable[[Jet], Jet],
                      g_origin: float = 0.0) -> ProfileCurve:
    """ProfileCurve backed by the dense ODE solution; f'' and f''' come from
    the jets of y via f'' = y'y, f''' = (y''y + y'^2) y."""

    def derivs(u):
        fval = float(path(u)[0])
        yj = jet_eval(y, fval)
        return (fval, yj.f, yj.d1 * yj.f, (yj.d2 * yj.f + yj.d1**2) * yj.f)

    return ProfileCurve(jet_function_from_derivs(derivs),
                        (path.t0, path.t1), g_origin)


def _trim_closed_form(f, u_range, samples=2000):
    """Largest left-anchored subinterval where f > 0 and |f'| stays clear of 0."""
    u0, u1 = u_range
    last_good = None
    for i in range(samples + 1):
        # u1 itself as the last sample: u0 + (u1 - u0) can round below u1
        u = u1 if i == samples else u0 + (u1 - u0) * i / samples
        try:
            fj = jet_eval(f, u)
        except DomainError:
            break
        if not (fj.f > 0.0 and abs(fj.d1) >= _Y_FLOOR):
            break
        last_good = u
    if last_good is None or last_good == u0:
        raise ProfileInvariantError(
            f"profile invalid at the left end of {u_range}")
    return (u0, last_good), last_good < u1


def constant_kappa_directrix(b: float, v_range: tuple,
                             step: float = DEFAULT_STEP) -> Directrix:
    """Directrix with constant curvature kappa = b != 0.

    b < 0 is realized exactly by the constant phi = -1/b. b > 0 has no
    constant solution; it is integrated as the IVP phi(v0) = 1, phi'(v0) = 0
    of phi phi'' - 2 phi'^2 - phi^2 = b (phi'^2 + phi^2)^(3/2), truncating
    where the solution runs away.
    """
    _require_nonzero("b", b)
    if b < 0:
        p = -1.0 / b

        def phi(x):
            xj = x if isinstance(x, Jet) else jets.constant(x)
            return jets.constant(p) + 0.0 * xj  # constant, any-jet-safe
        return Directrix(phi, v_range)

    def accel(p, q):
        D = q * q + p * p
        return (2.0 * q * q + p * p + b * D**1.5) / p

    def rhs(state):
        p, q = float(state[0]), float(state[1])
        if abs(p) < 1e-12:
            raise DomainError("phi hit zero during directrix integration", t=p)
        return [q, accel(p, q)]

    def stop(state):
        p, q = float(state[0]), float(state[1])
        return not (1e-6 < p < _F_BOUND and abs(q) < _F_BOUND)

    # phi'' is reconstructed from the ODE itself, so kappa == b identically on
    # the interpolant; the real error sits in phi, phi' and is controlled by a
    # step-halving (Richardson) comparison of the RK4 paths.
    path = None
    for _ in range(8):
        coarse = rk4_path(rhs, v_range[0], v_range[1], [1.0, 0.0], step, stop=stop)
        fine = rk4_path(rhs, v_range[0], v_range[1], [1.0, 0.0], 0.5 * step, stop=stop)
        t1 = min(coarse.t1, fine.t1)
        err = max(
            float(abs(coarse(coarse.t0 + (t1 - coarse.t0) * i / 32)
                      - fine(coarse.t0 + (t1 - coarse.t0) * i / 32)).max())
            for i in range(33))
        path = fine
        if err <= 1e-9:
            break
        step *= 0.5

    def derivs(v, path=path):
        p, q = (float(c) for c in path(v))
        pdd = accel(p, q)
        rD = math.sqrt(q * q + p * p)
        dF_dp = 2.0 + 3.0 * b * rD - pdd / p
        dF_dq = (4.0 * q + 3.0 * b * q * rD) / p
        return (p, q, pdd, dF_dp * q + dF_dq * pdd)

    return Directrix(jet_function_from_derivs(derivs), (path.t0, path.t1))


def _check_directrix_kappa(directrix: Directrix, b: float, samples: int = 21):
    v0, v1 = directrix.domain
    for i in range(samples):
        v = v0 + (v1 - v0) * i / (samples - 1)
        kv = kappa(directrix, v)
        if abs(kv - b) > KAPPA_MATCH_TOL:
            raise SpecMismatchError(
                f"directrix curvature {kv} at v = {v} does not match required "
                f"constant {b}")


def defining_residual(spec: FamilySpec, profile: ProfileCurve, u: float) -> float:
    """Relative residual of the family's defining second-order relation at u."""
    fj = profile.f_jet(u)
    f, fp, fpp = fj.f, fj.d1, fj.d2
    q = f * fpp + fp * fp
    if isinstance(spec, ConstantMean):
        lhs = q * q + spec.epsilon * 4.0 * spec.a**2 * f * f * fp * fp
        rhs = spec.b**2 * fp * fp
        scale = max(abs(lhs), abs(rhs), 1e-30)
        return abs(lhs - rhs) / scale
    if isinstance(spec, ConstantK):
        lhs = spec.b * fpp
        rhs = spec.branch * spec.a * f * fp
        scale = max(abs(lhs), abs(rhs), 1e-30)
        return abs(lhs - rhs) / scale
    if isinstance(spec, Chen):
        # squared form of f f'' = +/- f' sqrt(f'^2 - b^2): sign is pointwise
        lhs = (f * fpp) ** 2
        rhs = fp * fp * (fp * fp - spec.b**2)
        scale = max(abs(lhs), abs(rhs), fp**4, 1e-30)
        return abs(lhs - rhs) / scale
    if isinstance(spec, ParallelB):
        lhs = q
        rhs = spec.a * fp
        scale = max(abs(lhs), abs(rhs), 1e-30)
        return abs(lhs - rhs) / scale
    if isinstance(spec, ParallelA):
        return abs(q) / max(fp * fp, 1e-30)
    if isinstance(spec, ConstantGauss):
        return abs(fpp + spec.K * f) / max(abs(spec.K * f), 1e-30)
    raise SpecMismatchError(f"unknown spec {type(spec).__name__}")


def _closed_form_profile(spec: FamilySpec, u_range: tuple):
    if isinstance(spec, ConstantGauss):
        K, al, be = spec.K, spec.alpha, spec.beta
        r = math.sqrt(abs(K))
        if K > 0:
            def f(x):
                return al * jets.jcos(r * x) + be * jets.jsin(r * x)
        else:
            def f(x):
                return al * jets.jcosh(r * x) + be * jets.jsinh(r * x)
        realized, truncated = _trim_closed_form(f, u_range)
        return ProfileCurve(f, realized, 0.0), realized, truncated
    if isinstance(spec, ParallelA):
        if spec.sign != 1:
            raise SpecMismatchError(
                "sign=-1 gives f < 0 everywhere; the profile requires f > 0")
        c, dd, a = spec.c, spec.d, spec.a

        def f(x):
            return jets.jsqrt(c * x + dd)
        realized, truncated = _trim_closed_form(f, u_range)
        g_origin = -(2.0 / (3.0 * c * c)) * (c * realized[0] + dd) ** 1.5 + a
        return ProfileCurve(f, realized, g_origin), realized, truncated
    raise SpecMismatchError(f"{type(spec).__name__} has no closed-form profile")


def generate(spec: FamilySpec, f0: Optional[float], u_range: tuple,
             directrix: Directrix, step: float = DEFAULT_STEP) -> GeneratedSurface:
    """Build the family member over the given directrix.

    For kappa-constrained variants the directrix curvature is verified to be
    the required constant (tolerance 1e-8 on a v-grid). Closed-form variants
    ignore f0. ODE variants that fail their defining-property tolerance get
    up to four automatic step halvings. The realized u-range is trimmed
    wherever profile invariants or y's domain would fail; trimming is reported
    via `truncated`, not as a failure.
    """
    required_kappa = spec.kappa_constant
    if required_kappa is not None:
        _check_directrix_kappa(directrix, required_kappa)

    if isinstance(spec, (ConstantGauss, ParallelA)):
        profile, realized, truncated = _closed_form_profile(spec, u_range)
        rep = validate_profile(profile, 64)
        if not rep:
            raise ProfileInvariantError(
                f"generated profile fails {rep.predicate} at u = {rep.location}")
        return GeneratedSurface(MeridianSurface(profile, directrix), spec,
                                "closed-form", realized, truncated)

    if not isinstance(spec, _ODE_SPECS):
        raise SpecMismatchError(f"unknown spec {type(spec).__name__}")
    if f0 is None or f0 <= 0:
        raise SpecMismatchError("ODE variants need a starting value f0 > 0")

    y = y_function(spec)
    h = step
    last = None
    for _ in range(MAX_STEP_HALVINGS + 1):
        path = integrate_autonomous(y, f0, u_range, h)
        profile = profile_from_path(path, y)
        realized = (path.t0, path.t1)
        n = 50
        worst = max(defining_residual(spec, profile,
                                      realized[0] + (realized[1] - realized[0]) * i / (n - 1))
                    for i in range(n))
        last = GeneratedSurface(MeridianSurface(profile, directrix), spec,
                                "ode-integrated", realized, path.truncated)
        if worst <= RESIDUAL_TOL:
            return last
        h *= 0.5
    return last
