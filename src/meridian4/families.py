"""Generators for the five classified families of meridian surfaces of
parabolic type: constant Gauss curvature, constant mean curvature, constant
invariant k, Chen surfaces, and parallel normal bundle.

Closed-form profiles are used where the classification gives one (constant
Gauss, parallel case a); the rest integrate the autonomous profile equation
f' = y(f) once with the error-controlled Dormand-Prince 5(4) pair and its
dense output. A profile whose defining residual still exceeds RESIDUAL_TOL
raises ProfileInvariantError rather than being returned. The directrix of
constant curvature kappa = b that four families need is in closed form: a
constant phi for b < 0, a circle in polar form for b > 0.
"""

import math
from typing import Callable, Optional, Union

from . import jets
from .errors import DomainError, ProfileInvariantError, SpecMismatchError
from .jets import Jet, jet_eval, jet_function_from_derivs
from .odeint import DensePath, dormand_prince
from .profile import (FPRIME_FLOOR, G_TOL, Directrix, ProfileCurve,
                      directrix_point, profile_point, sample_grid)
from .records import Frozen, set_fields
from .surface import MeridianSurface

__all__ = [
    "ConstantGauss", "ConstantMean", "ConstantK", "Chen",
    "ParallelA", "ParallelB", "FamilySpec", "GeneratedSurface",
    "y_function", "integrate_autonomous",
    "constant_kappa_directrix", "generate", "defining_residual",
]

RESIDUAL_TOL = 1e-6
PROFILE_SAMPLES = 50  # u rows of the defining residual, from end to end
KAPPA_MATCH_TOL = 1e-8
KAPPA_SAMPLES = 21    # v rows of the directrix curvature check
_F_BOUND = 1e3        # runaway bound on f, f' and on phi, phi'
_STEP_BACKS = 64      # doubling steps back from a closed-form end rounded outside


def _require_nonzero(name, value):
    if value == 0:
        raise SpecMismatchError(f"{name} must be nonzero")


def _require_sign(name, value):
    if value not in (1, -1):
        raise SpecMismatchError(f"{name} must be +1 or -1, got {value!r}")


class ConstantGauss(Frozen):
    """Surfaces with Gauss curvature K = const != 0; profile in closed form."""
    __slots__ = ("K", "alpha", "beta")

    def __init__(self, K: float, alpha: float, beta: float):
        _require_nonzero("K", K)
        set_fields(self, K, alpha, beta)

    kappa_constant = None


class ConstantMean(Frozen):
    """Surfaces with ||H|| = a = const != 0; needs kappa = const = b."""
    __slots__ = ("a", "b", "C", "epsilon", "branch")

    def __init__(self, a: float, b: float, C: float, epsilon: int, branch: int):
        _require_nonzero("a", a)
        _require_nonzero("b", b)
        _require_sign("epsilon", epsilon)
        _require_sign("branch", branch)
        set_fields(self, a, b, C, epsilon, branch)

    @property
    def kappa_constant(self):
        return self.b


class ConstantK(Frozen):
    """Surfaces with invariant k = const = -a^2; needs kappa = const = b."""
    __slots__ = ("a", "b", "c", "branch")

    def __init__(self, a: float, b: float, c: float, branch: int):
        _require_nonzero("a", a)
        _require_nonzero("b", b)
        _require_sign("branch", branch)
        set_fields(self, a, b, c, branch)

    @property
    def kappa_constant(self):
        return self.b


class Chen(Frozen):
    """Chen surfaces (invariant lambda = 0); needs kappa = const = b."""
    __slots__ = ("b", "c", "exponent_branch")

    def __init__(self, b: float, c: float, exponent_branch: int):
        _require_nonzero("b", b)
        _require_nonzero("c", c)
        _require_sign("exponent_branch", exponent_branch)
        set_fields(self, b, c, exponent_branch)

    @property
    def kappa_constant(self):
        return self.b


class ParallelA(Frozen):
    """Parallel normal bundle, case f f'' + f'^2 = 0: f = sqrt(c u + d),
    g = -(2/(3c^2))(c u + d)^(3/2) + a, all in closed form."""
    __slots__ = ("c", "d", "a", "sign")

    def __init__(self, c: float, d: float, a: float = 0.0, sign: int = 1):
        _require_nonzero("c", c)
        _require_sign("sign", sign)
        set_fields(self, c, d, a, sign)

    kappa_constant = None


class ParallelB(Frozen):
    """Parallel normal bundle, case (f f'' + f'^2)/f' = a = const != 0;
    needs kappa = const = b."""
    __slots__ = ("a", "c", "b")

    def __init__(self, a: float, c: float, b: float):
        _require_nonzero("a", a)
        _require_nonzero("b", b)
        set_fields(self, a, c, b)

    @property
    def kappa_constant(self):
        return self.b


FamilySpec = Union[ConstantGauss, ConstantMean, ConstantK, Chen, ParallelA, ParallelB]
_ODE_SPECS = (ConstantMean, ConstantK, Chen, ParallelB)


class GeneratedSurface(Frozen):
    """surface, its spec, f_source ("closed-form", "ode-integrated" or, for
    a direct spec, "expression"), the realized u_range and whether it was
    truncated."""

    __slots__ = ("surface", "spec", "f_source", "u_range", "truncated")

    def __init__(self, surface: MeridianSurface, spec: Optional[FamilySpec],
                 f_source: str, u_range: tuple, truncated: bool):
        set_fields(self, surface, spec, f_source, u_range, truncated)


def _jlog_abs(x):
    if jets.value(x) < 0.0:
        return jets.jlog(-x)
    return jets.jlog(x)


def y_function(spec: FamilySpec) -> Callable[[Jet], Jet]:
    """Jet-capable closed-form y with f' = y(f), for the ODE variants; on a
    float it gives the float y(t)."""
    if isinstance(spec, ConstantMean):
        a, b, C, s = spec.a, spec.b, spec.C, float(spec.branch)
        cap = abs(b) / (2.0 * abs(a))

        if spec.epsilon == 1:
            def y(t):
                tv = jets.value(t)
                if not 0.0 < tv < cap - 1e-9:
                    raise DomainError("t outside (0, |b|/2|a|) for the arcsin branch",
                                      t=tv)
                root = jets.jsqrt(b * b - 4.0 * a * a * t * t)
                return (C + s * 0.5 * t * root
                        + s * (b * b / (4.0 * a)) * jets.jarcsin(2.0 * a * t / abs(b))) / t
        else:
            def y(t):
                tv = jets.value(t)
                if tv <= 0.0:
                    raise DomainError("t must be positive", t=tv)
                root = jets.jsqrt(b * b + 4.0 * a * a * t * t)
                return (C + s * 0.5 * t * root
                        + s * (b * b / (4.0 * a)) * _jlog_abs(2.0 * a * t + root)) / t
        return y
    if isinstance(spec, ConstantK):
        a, b, c, s = spec.a, spec.b, spec.c, float(spec.branch)

        def y(t):
            return c + s * a * t * t / (2.0 * b)
        return y
    if isinstance(spec, Chen):
        b, c, s = spec.b, spec.c, spec.exponent_branch

        def y(t):
            tv = jets.value(t)
            if tv <= 0.0:
                raise DomainError("t must be positive", t=tv)
            tp = jets.jpow(t, s)
            return (c * c * tp * tp + b * b) / (2.0 * c * tp)
        return y
    if isinstance(spec, ParallelB):
        a, c = spec.a, spec.c

        def y(t):
            tv = jets.value(t)
            if tv <= 0.0:
                raise DomainError("t must be positive", t=tv)
            return (c + a * t) / t
        return y
    raise SpecMismatchError(f"{type(spec).__name__} has no autonomous y(t)")


def integrate_autonomous(y: Callable[[Jet], Jet], f0: float,
                         u_range: tuple) -> DensePath:
    """Integrate f' = y(f) from the left end of u_range.

    Truncates (rather than failing) when y's domain would be exited, when y
    approaches zero or changes sign (f' = 0 would break the profile) or when
    f or y runs away. y is called on floats, so only its values are
    computed; the path carries f values.
    """
    y0 = y(f0)
    if abs(y0) < FPRIME_FLOOR:
        raise ProfileInvariantError(f"y(f0) = {y0} at f0 = {f0}: f' = 0 at the start")
    sign0 = 1.0 if y0 > 0 else -1.0

    def rhs(t):
        if not 0.0 < t < _F_BOUND:
            raise DomainError(f"f = {t} outside (0, {_F_BOUND})", t=t)
        yv = y(t)
        if abs(yv) < FPRIME_FLOOR or yv * sign0 < 0 or abs(yv) > _F_BOUND:
            raise DomainError(f"f' = {yv} at f = {t} vanishes, changes sign or "
                              f"runs away", t=t)
        return yv

    return dormand_prince(rhs, u_range[0], u_range[1], f0)


def profile_from_path(path: DensePath, y: Callable[[Jet], Jet],
                      g_origin: float = 0.0) -> ProfileCurve:
    """ProfileCurve backed by the dense ODE solution; f' = y(f), f'' and
    f''' come from the jet of y at f via f'' = y'y, f''' = (y''y + y'^2) y,
    and g is the path's g shifted by g_origin. A g whose accumulated error
    estimate up to u exceeds G_TOL raises QuadratureLimitError."""

    def derivs(u):
        fval = path(u)
        yj = jet_eval(y, fval)
        return (fval, yj.f, yj.d1 * yj.f, (yj.d2 * yj.f + yj.d1**2) * yj.f)

    def g_eval(u):
        return g_origin + path.g(u, G_TOL)

    return ProfileCurve(jet_function_from_derivs(derivs),
                        (path.t0, path.t1), g_origin, g_eval)


def _exp_roots(a: float, b: float, c: float) -> list:
    """The real x whose w = e^x solves a w^2 + b w + c = 0, from the
    cancellation-free pair of roots q/a and c/q."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    ws = ([q / a] if a else []) + ([c / q] if q else [])
    return [math.log(w) for w in ws if w > 0.0]


def _gauss_form(spec: ConstantGauss) -> tuple:
    """The parametrisation that a ConstantGauss profile's closed forms share:
    (r, A, delta) with f = A cos(r u - delta) when K > 0, and (r, P, Q) with
    f = alpha cosh(r u) + beta sinh(r u) = P e^(r u) + Q e^(-r u) when K < 0."""
    al, be = spec.alpha, spec.beta
    if spec.K > 0:
        return math.sqrt(spec.K), math.hypot(al, be), math.atan2(be, al)
    return math.sqrt(-spec.K), 0.5 * (al + be), 0.5 * (al - be)


def _first_crossing(spec: FamilySpec, u0: float) -> float:
    """The first u > u0 where f = 0 or |f'| = FPRIME_FLOOR (inf if none), for
    a closed-form profile that is admissible at u0."""
    if isinstance(spec, ParallelA):
        # f = sqrt(c u + d) vanishes at -d/c; |f'| = c / (2 f) meets the floor
        # where c u + d = (c / (2 FPRIME_FLOOR))^2
        c, d = spec.c, spec.d
        crossings = [-d / c, ((c / (2.0 * FPRIME_FLOOR))**2 - d) / c]
    elif spec.K > 0:
        # f = A cos(theta), f' = -A r sin(theta), theta = r u - delta: the
        # boundary is the next multiple of pi/2 above theta(u0); f vanishes at
        # its odd multiples and f' at its even ones
        r, A, delta = _gauss_form(spec)
        k = math.floor((r * u0 - delta) / (0.5 * math.pi)) + 1
        theta = 0.5 * math.pi * k
        if k % 2 == 0:
            theta -= math.asin(FPRIME_FLOOR / (A * r))
        crossings = [(theta + delta) / r]
    else:
        # f = P e^x + Q e^-x and f' = r (P e^x - Q e^-x), x = r u: f = 0 and
        # f' = +-FPRIME_FLOOR are quadratics in w = e^x
        r, P, Q = _gauss_form(spec)
        c = FPRIME_FLOOR / r
        xs = _exp_roots(P, 0.0, Q) + _exp_roots(P, -c, -Q) + _exp_roots(P, c, -Q)
        crossings = [x / r for x in xs]
    return min((u for u in crossings if u > u0), default=math.inf)


def _admissible(f, u: float) -> bool:
    """f > 0 and |f'| >= FPRIME_FLOOR at u."""
    try:
        fj = jet_eval(f, u)
    except DomainError:
        return False
    return fj.f > 0.0 and abs(fj.d1) >= FPRIME_FLOOR


def _closed_form_end(spec: FamilySpec, f, u_range: tuple):
    """The realized range (u0, end) of a closed-form profile and whether it
    was truncated: end is the largest u <= u1 with f > 0 and |f'| >=
    FPRIME_FLOOR on all of [u0, u].

    The first crossing comes from the closed form; where rounding leaves it
    just outside the admissible set, it is stepped back by 1, 2, 4, ... ulps.
    """
    u0, u1 = u_range
    if not _admissible(f, u0):
        raise ProfileInvariantError(f"profile invalid at the left end of {u_range}")
    end = min(u1, _first_crossing(spec, u0))
    step = math.ulp(end)
    for _ in range(_STEP_BACKS):
        if end <= u0 or _admissible(f, end):
            break
        end, step = end - step, 2.0 * step
    if end <= u0 or not _admissible(f, end):
        raise ProfileInvariantError(
            f"no admissible profile beyond the left end of {u_range}")
    return (u0, end), end < u1


def _bounded(phi, v: float) -> bool:
    """phi and |phi'| below _F_BOUND at v (False where phi is undefined)."""
    try:
        pj = jet_eval(phi, v)
    except DomainError:
        return False
    return pj.f < _F_BOUND and abs(pj.d1) < _F_BOUND


def constant_kappa_directrix(b: float, v_range: tuple) -> Directrix:
    """Directrix with constant curvature kappa = b != 0.

    b < 0 is realized exactly by the constant phi = -1/b. For b > 0 the
    solution of phi(v0) = 1, phi'(v0) = 0 is the circle of radius 1/b in
    polar form, phi = (b+2) / ((b+1) cos(v-v0) + sqrt(1 - (b+1)^2 sin^2(v-v0))).
    phi and phi' grow monotonically towards the ray tangent to the circle,
    at v0 + arcsin(1/(b+1)); the realized range ends at the largest v <= v1
    before that ray with phi and |phi'| below _F_BOUND, to adjacent floats.
    """
    _require_nonzero("b", b)
    if b < 0:
        p = -1.0 / b

        def phi(x):
            return jets.constant(p) if isinstance(x, Jet) else p
        return Directrix(phi, v_range)

    v0, v1 = v_range
    c, num = b + 1.0, b + 2.0

    def phi(x):
        # the nearer point of the circle on the ray at x, without cancellation
        s = jets.jsin(x - v0)
        return num / (c * jets.jcos(x - v0) + jets.jsqrt(1.0 - c * c * (s * s)))

    # bisect keeping phi bounded at end and not at hi; past the tangent ray
    # the closed form is another arc of the circle
    end, hi = v0, min(v1, v0 + math.asin(1.0 / c))
    if hi == v1 and _bounded(phi, v1):
        end = v1
    mid = 0.5 * (end + hi)
    while end < mid < hi:
        if _bounded(phi, mid):
            end = mid
        else:
            hi = mid
        mid = 0.5 * (end + hi)
    return Directrix(phi, (v0, end))


def _check_directrix_kappa(directrix: Directrix, b: float):
    for v in sample_grid(directrix.domain, KAPPA_SAMPLES):
        kv = directrix_point(directrix, v).kappa
        if abs(kv - b) > KAPPA_MATCH_TOL:
            raise SpecMismatchError(
                f"directrix curvature {kv} at v = {v} does not match required "
                f"constant {b}")


def defining_residual(spec: FamilySpec, profile: ProfileCurve, u: float) -> float:
    """Relative residual of the family's defining second-order relation at u,
    read from the profile's record there."""
    p = profile_point(profile, u)
    f, fp, fpp, q = p.f, p.fp, p.fpp, p.q
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


def _log_tan_ratio(sin, cos, tan, a: float, b: float, h: float) -> float:
    """ln(tan(a) / tan(b)), or the same with sinh, cosh and tanh, for a
    positive ratio, with h = a - b given from the step rather than from a and b.

    tan(a) / tan(b) = 1 + sin(a - b) / (cos(a) sin(b)) keeps a small step from
    cancelling; a ratio below 1/2 is far enough from 1 to take directly.
    """
    x = sin(h) / (cos(a) * sin(b))
    return math.log1p(x) if x > -0.5 else math.log(tan(a) / tan(b))


def _gauss_g(K: float, form: tuple, u0: float) -> Callable[[float], float]:
    """g of a ConstantGauss profile with the given _gauss_form, on floats, with
    g(u0) = 0: g = scale (G(u) - G(u0)) for the antiderivative G of each case.

    The difference G(u) - G(u0) is never taken of two rounded values of G,
    and its step r (u - u0) comes from u - u0, so its error stays relative to
    g where the scale is large (small |K|, or P Q near 0)."""
    if K > 0:
        # f = A cos(theta), theta = r u - delta: dg = dtheta / (2 A r^2 sin(theta)),
        # G = ln|tan(theta / 2)|
        r, A, delta = form
        scale = 0.5 / (A * K)
        b = 0.5 * (r * u0 - delta)

        def dG(u):
            return _log_tan_ratio(math.sin, math.cos, math.tan,
                                  0.5 * (r * u - delta), b, 0.5 * r * (u - u0))
    else:
        # w = e^(r u) turns dg = -du / (2 f') into -dw / (2 r^2 (P w^2 - Q))
        r, P, Q = form
        if P == 0.0:
            # G = e^(r u)
            scale = -0.5 / (K * Q)

            def dG(u):
                return math.exp(r * u0) * math.expm1(r * (u - u0))
        elif Q == 0.0:
            # G = e^(-r u)
            scale = -0.5 / (K * P)

            def dG(u):
                return math.exp(-r * u0) * math.expm1(-r * (u - u0))
        else:
            # z = r u - x0 with e^(2 x0) = |Q / P|
            x0 = 0.5 * math.log(abs(Q / P))
            root = math.copysign(math.sqrt(abs(P * Q)), P)
            if P * Q > 0.0:
                # P w^2 - Q = P (w - s)(w + s), s = e^x0: f' vanishes at z = 0;
                # G = ln|tanh(z / 2)|
                scale = 0.25 / (K * root)
                b = 0.5 * (r * u0 - x0)

                def dG(u):
                    return _log_tan_ratio(math.sinh, math.cosh, math.tanh,
                                          0.5 * (r * u - x0), b, 0.5 * r * (u - u0))
            else:
                # P w^2 - Q = P (w^2 + t^2), t = e^x0: G = atan(e^z), and
                # atan(e^z) - atan(e^z0) = atan(sinh((z - z0) / 2) / cosh((z + z0) / 2))
                scale = 0.5 / (K * root)
                m0 = 0.5 * r * u0 - x0

                def dG(u):
                    return math.atan(math.sinh(0.5 * r * (u - u0))
                                     / math.cosh(0.5 * r * u + m0))

    def g(u):
        return scale * dG(u)
    return g


def _closed_form_profile(spec: FamilySpec, u_range: tuple):
    if isinstance(spec, ConstantGauss):
        form = _gauss_form(spec)
        r = form[0]
        if spec.K > 0:
            al, be = spec.alpha, spec.beta

            def f(x):
                return al * jets.jcos(r * x) + be * jets.jsin(r * x)
        else:
            # alpha cosh + beta sinh without the cancellation of cosh - sinh
            _, P, Q = form

            def f(x):
                return P * jets.jexp(r * x) + Q * jets.jexp(-r * x)
        realized, truncated = _closed_form_end(spec, f, u_range)
        profile = ProfileCurve(f, realized, 0.0, g_eval=_gauss_g(spec.K, form, realized[0]))
        return profile, realized, truncated
    if isinstance(spec, ParallelA):
        if spec.sign != 1:
            raise SpecMismatchError(
                "sign=-1 gives f < 0 everywhere; the profile requires f > 0")
        c, dd, a = spec.c, spec.d, spec.a

        def f(x):
            return jets.jsqrt(c * x + dd)

        def g(x):
            return -(2.0 / (3.0 * c * c)) * (c * x + dd) ** 1.5 + a
        realized, truncated = _closed_form_end(spec, f, u_range)
        return ProfileCurve(f, realized, g(realized[0]), g_eval=g), realized, truncated
    raise SpecMismatchError(f"{type(spec).__name__} has no closed-form profile")


def generate(spec: FamilySpec, f0: Optional[float], u_range: tuple,
             directrix: Directrix) -> GeneratedSurface:
    """Build the family member over the given directrix.

    For kappa-constrained variants the directrix curvature is verified to be
    the required constant (tolerance 1e-8 on a v-grid). Closed-form variants
    take no f0 (SpecMismatchError if one is given); their realized range ends
    exactly where f reaches 0 or |f'| reaches FPRIME_FLOOR, computed from the
    closed form (the largest u <= u1 with f > 0 and |f'| >= FPRIME_FLOOR on
    all of [u0, u]). ODE variants are integrated once; if the defining
    residual on 50 points of the realized range exceeds RESIDUAL_TOL,
    ProfileInvariantError is raised, and their range ends where y's domain
    would be left, f' would vanish or the solution runs away. An early end is reported via `truncated`, not as a
    failure; a profile that fails at u0 itself raises ProfileInvariantError.
    """
    required_kappa = spec.kappa_constant
    if required_kappa is not None:
        _check_directrix_kappa(directrix, required_kappa)

    if isinstance(spec, (ConstantGauss, ParallelA)):
        if f0 is not None:
            raise SpecMismatchError(
                f"{type(spec).__name__} is in closed form and takes no f0")
        profile, realized, truncated = _closed_form_profile(spec, u_range)
        return GeneratedSurface(MeridianSurface(profile, directrix), spec,
                                "closed-form", realized, truncated)

    if not isinstance(spec, _ODE_SPECS):
        raise SpecMismatchError(f"unknown spec {type(spec).__name__}")
    if f0 is None or f0 <= 0:
        raise SpecMismatchError("ODE variants need a starting value f0 > 0")

    y = y_function(spec)
    path = integrate_autonomous(y, f0, u_range)
    profile = profile_from_path(path, y)
    realized = (path.t0, path.t1)
    worst, where = max((defining_residual(spec, profile, u), u)
                       for u in sample_grid(realized, PROFILE_SAMPLES))
    if worst > RESIDUAL_TOL:
        raise ProfileInvariantError(
            f"defining residual {worst:.3e} at u = {where} exceeds {RESIDUAL_TOL}")
    return GeneratedSurface(MeridianSurface(profile, directrix), spec,
                            "ode-integrated", realized, path.truncated)
