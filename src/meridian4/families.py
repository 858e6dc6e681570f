"""Generators for the five classified families of meridian surfaces of
parabolic type: constant Gauss curvature, constant mean curvature, constant
invariant k, Chen surfaces, and parallel normal bundle.

Each family is one spec class, which holds all that depends on the family:
its profile, its defining relation, the invariants it keeps constant and the
curvature its directrix needs. Closed-form profiles are used where the
classification gives one (constant Gauss, parallel case a); the rest
integrate the autonomous profile equation f' = y(f) once with the
error-controlled Dormand-Prince 5(4) pair and its dense output. A profile
whose defining residual still exceeds RESIDUAL_TOL raises
ProfileInvariantError rather than being returned. The directrix of constant
curvature kappa = b that four families need is in closed form: a constant
phi for b < 0, a circle in polar form for b > 0.
"""

import math
from collections.abc import Callable

from . import jets
from .errors import DomainError, ProfileInvariantError, SpecMismatchError
from .jets import Jet, jet_eval, jet_function_from_derivs
from .profile import (FPRIME_FLOOR, G_TOL, Directrix, ProfileCurve,
                      directrix_point, profile_point, sample_grid)
from .records import Frozen, set_fields
from .surface import MeridianSurface

__all__ = [
    "ConstantGauss", "ConstantMean", "ConstantK", "Chen",
    "ParallelA", "ParallelB", "FamilySpec", "GeneratedSurface",
    "integrate_autonomous",
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


def _relative(lhs: float, rhs: float, *scale: float) -> float:
    """|lhs - rhs| relative to the largest of |lhs|, |rhs|, scale and 1e-30."""
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), *scale, 1e-30)


def _first_after(u0: float, us) -> float:
    """The least of us above u0, or inf."""
    return min((u for u in us if u > u0), default=math.inf)


class FamilySpec(Frozen):
    """A member of one of the five classified families. Its class holds all
    that depends on the family:

    - kappa_constant: the constant curvature b its directrix must have, or
      None where any directrix will do;
    - realize(f0, u_range): (profile, realized range, truncated), built as
      f_source says;
    - residual(p): the relative residual of the family's defining relation
      at the ProfilePoint p;
    - targets: (label, InvariantRecord field, value, tolerance) for each
      invariant the family keeps constant.
    """

    __slots__ = ()


class _ClosedForm(FamilySpec):
    """A family with its profile in closed form: f() is the jet-capable f,
    g(u0) the pair (g(u0), g on floats) and crossing(u0) the first u > u0
    where f = 0 or |f'| = FPRIME_FLOOR (inf if none), for a profile that is
    admissible at u0. It takes any directrix and no f0."""

    __slots__ = ()
    kappa_constant = None
    f_source = "closed-form"

    def realize(self, f0: float | None, u_range: tuple):
        if f0 is not None:
            raise SpecMismatchError(
                f"{type(self).__name__} is in closed form and takes no f0")
        f = self.f()
        realized, truncated = _closed_form_end(self, f, u_range)
        g_origin, g = self.g(realized[0])
        return ProfileCurve(f, realized, g_origin, g_eval=g), realized, truncated


class _Autonomous(FamilySpec):
    """A family whose profile solves f' = y(f) from f0 > 0, over a directrix
    of constant curvature kappa = b: y() is the jet-capable y, which on a
    float gives the float y(t)."""

    __slots__ = ()
    f_source = "ode-integrated"

    @property
    def kappa_constant(self):
        return self.b

    def realize(self, f0: float | None, u_range: tuple):
        if f0 is None or not 0.0 < f0 < math.inf:
            raise SpecMismatchError(
                f"ODE variants need a finite starting value f0 > 0, got {f0!r}")
        y = self.y()
        path = integrate_autonomous(y, f0, u_range)
        profile = profile_from_path(path, y)
        realized = (path.t0, path.t1)
        worst, where = max((defining_residual(self, profile, u), u)
                           for u in sample_grid(realized, PROFILE_SAMPLES))
        if worst > RESIDUAL_TOL:
            raise ProfileInvariantError(
                f"defining residual {worst:.3e} at u = {where} exceeds {RESIDUAL_TOL}")
        return profile, realized, path.truncated


class ConstantGauss(_ClosedForm):
    """Surfaces with Gauss curvature K = const != 0; profile in closed form."""
    __slots__ = ("K", "alpha", "beta")

    def __init__(self, K: float, alpha: float, beta: float):
        _require_nonzero("K", K)
        set_fields(self, K, alpha, beta)

    def _form(self) -> tuple:
        """The parametrisation that the closed forms share: (r, A, delta) with
        f = A cos(r u - delta) when K > 0, and (r, P, Q) with
        f = alpha cosh(r u) + beta sinh(r u) = P e^(r u) + Q e^(-r u) when K < 0."""
        al, be = self.alpha, self.beta
        if self.K > 0:
            return math.sqrt(self.K), math.hypot(al, be), math.atan2(be, al)
        return math.sqrt(-self.K), 0.5 * (al + be), 0.5 * (al - be)

    def f(self):
        if self.K > 0:
            r, al, be = self._form()[0], self.alpha, self.beta

            def f(x):
                return al * jets.jcos(r * x) + be * jets.jsin(r * x)
        else:
            # alpha cosh + beta sinh without the cancellation of cosh - sinh
            r, P, Q = self._form()

            def f(x):
                return P * jets.jexp(r * x) + Q * jets.jexp(-r * x)
        return f

    def g(self, u0: float):
        """g = scale (G(u) - G(u0)) for the antiderivative G of each case,
        so g(u0) = 0.

        The difference G(u) - G(u0) is never taken of two rounded values of
        G, and its step r (u - u0) comes from u - u0, so its error stays
        relative to g where the scale is large (small |K|, or P Q near 0)."""
        K = self.K
        if K > 0:
            # f = A cos(theta), theta = r u - delta: dg = dtheta / (2 A r^2 sin(theta)),
            # G = ln|tan(theta / 2)|
            r, A, delta = self._form()
            scale = 0.5 / (A * K)
            b = 0.5 * (r * u0 - delta)

            def dG(u):
                return _log_tan_ratio(math.sin, math.cos, math.tan,
                                      0.5 * (r * u - delta), b, 0.5 * r * (u - u0))
        else:
            # w = e^(r u) turns dg = -du / (2 f') into -dw / (2 r^2 (P w^2 - Q))
            r, P, Q = self._form()
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
        return 0.0, g

    def crossing(self, u0: float) -> float:
        if self.K > 0:
            # f = A cos(theta), f' = -A r sin(theta), theta = r u - delta: the
            # boundary is the next multiple of pi/2 above theta(u0); f vanishes at
            # its odd multiples and f' at its even ones
            r, A, delta = self._form()
            k = math.floor((r * u0 - delta) / (0.5 * math.pi)) + 1
            theta = 0.5 * math.pi * k
            if k % 2 == 0:
                theta -= math.asin(FPRIME_FLOOR / (A * r))
            return _first_after(u0, [(theta + delta) / r])
        # f = P e^x + Q e^-x and f' = r (P e^x - Q e^-x), x = r u: f = 0 and
        # f' = +-FPRIME_FLOOR are quadratics in w = e^x
        r, P, Q = self._form()
        c = FPRIME_FLOOR / r
        xs = _exp_roots(P, 0.0, Q) + _exp_roots(P, -c, -Q) + _exp_roots(P, c, -Q)
        return _first_after(u0, [x / r for x in xs])

    def residual(self, p) -> float:
        return abs(p.fpp + self.K * p.f) / max(abs(self.K * p.f), 1e-30)

    @property
    def targets(self):
        return ((f"K=={self.K}", "K", self.K, 1e-9),)


class ConstantMean(_Autonomous):
    """Surfaces with ||H|| = a = const != 0; needs kappa = const = b."""
    __slots__ = ("a", "b", "C", "epsilon", "branch")

    def __init__(self, a: float, b: float, C: float, epsilon: int, branch: int):
        _require_nonzero("a", a)
        _require_nonzero("b", b)
        _require_sign("epsilon", epsilon)
        _require_sign("branch", branch)
        set_fields(self, a, b, C, epsilon, branch)

    def y(self):
        a, b, C, s = self.a, self.b, self.C, float(self.branch)
        cap = abs(b) / (2.0 * abs(a))

        if self.epsilon == 1:
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

    def residual(self, p) -> float:
        f, fp = p.f, p.fp
        return _relative(p.q * p.q + self.epsilon * 4.0 * self.a**2 * f * f * fp * fp,
                         self.b**2 * fp * fp)

    @property
    def targets(self):
        return ((f"||H||=={abs(self.a)}", "H_norm", abs(self.a), 1e-6),)


class ConstantK(_Autonomous):
    """Surfaces with invariant k = const = -a^2; needs kappa = const = b."""
    __slots__ = ("a", "b", "c", "branch")

    def __init__(self, a: float, b: float, c: float, branch: int):
        _require_nonzero("a", a)
        _require_nonzero("b", b)
        _require_sign("branch", branch)
        set_fields(self, a, b, c, branch)

    def y(self):
        a, b, c, s = self.a, self.b, self.c, float(self.branch)

        def y(t):
            return c + s * a * t * t / (2.0 * b)
        return y

    def residual(self, p) -> float:
        return _relative(self.b * p.fpp, self.branch * self.a * p.f * p.fp)

    @property
    def targets(self):
        return ((f"k=={-self.a**2}", "k", -self.a**2, 1e-6),)


class Chen(_Autonomous):
    """Chen surfaces (invariant lambda = 0); needs kappa = const = b."""
    __slots__ = ("b", "c", "exponent_branch")

    def __init__(self, b: float, c: float, exponent_branch: int):
        _require_nonzero("b", b)
        _require_nonzero("c", c)
        _require_sign("exponent_branch", exponent_branch)
        set_fields(self, b, c, exponent_branch)

    def y(self):
        # (c^2 t^2s + b^2) / (2 c t^s) as c t^s / 2 + (b^2 / 2c) t^-s: the
        # quotient's third derivative cubes the derivative of c t^s, which
        # overflows next to t = 0 while y''' itself does not. With s = +-1
        # that is A t + B (1 / t).
        A, B = 0.5 * self.c, 0.5 * self.b * self.b / self.c
        if self.exponent_branch == -1:
            A, B = B, A

        def y(t):
            tv = jets.value(t)
            if tv <= 0.0:
                raise DomainError("t must be positive", t=tv)
            return A * t + B * (1.0 / t)
        return y

    def residual(self, p) -> float:
        # squared form of f f'' = +/- f' sqrt(f'^2 - b^2): sign is pointwise
        return _relative((p.f * p.fpp) ** 2, p.fp * p.fp * (p.fp * p.fp - self.b**2),
                         p.fp**4)

    targets = (("lambda==0", "lam", 0.0, 1e-6),)


class ParallelA(_ClosedForm):
    """Parallel normal bundle, case f f'' + f'^2 = 0: f = sqrt(c u + d),
    g = -(2/(3c^2))(c u + d)^(3/2) + a, all in closed form."""
    __slots__ = ("c", "d", "a", "sign")

    def __init__(self, c: float, d: float, a: float = 0.0, sign: int = 1):
        _require_nonzero("c", c)
        _require_sign("sign", sign)
        set_fields(self, c, d, a, sign)

    def f(self):
        if self.sign != 1:
            raise SpecMismatchError(
                "sign=-1 gives f < 0 everywhere; the profile requires f > 0")
        c, dd = self.c, self.d

        def f(x):
            return jets.jsqrt(c * x + dd)
        return f

    def g(self, u0: float):
        c, dd, a = self.c, self.d, self.a

        def g(x):
            return -(2.0 / (3.0 * c * c)) * (c * x + dd) ** 1.5 + a
        return g(u0), g

    def crossing(self, u0: float) -> float:
        # f = sqrt(c u + d) vanishes at -d/c; |f'| = c / (2 f) meets the floor
        # where c u + d = (c / (2 FPRIME_FLOOR))^2
        c, d = self.c, self.d
        return _first_after(u0, [-d / c, ((c / (2.0 * FPRIME_FLOOR))**2 - d) / c])

    def residual(self, p) -> float:
        return abs(p.q) / max(p.fp * p.fp, 1e-30)

    targets = (("beta1==0", "beta1", 0.0, 1e-6), ("beta2==0", "beta2", 0.0, 1e-6))


class ParallelB(_Autonomous):
    """Parallel normal bundle, case (f f'' + f'^2)/f' = a = const != 0;
    needs kappa = const = b."""
    __slots__ = ("a", "c", "b")

    def __init__(self, a: float, c: float, b: float):
        _require_nonzero("a", a)
        _require_nonzero("b", b)
        set_fields(self, a, c, b)

    def y(self):
        a, c = self.a, self.c

        def y(t):
            tv = jets.value(t)
            if tv <= 0.0:
                raise DomainError("t must be positive", t=tv)
            return (c + a * t) / t
        return y

    def residual(self, p) -> float:
        return _relative(p.q, self.a * p.fp)

    targets = (("beta1==0", "beta1", 0.0, 1e-6), ("beta2==0", "beta2", 0.0, 1e-6))


class GeneratedSurface(Frozen):
    """surface, its spec, f_source ("closed-form", "ode-integrated" or, for
    a direct spec, "expression"), the realized u_range and whether it was
    truncated."""

    __slots__ = ("surface", "spec", "f_source", "u_range", "truncated")

    def __init__(self, surface: MeridianSurface, spec: FamilySpec | None,
                 f_source: str, u_range: tuple, truncated: bool):
        set_fields(self, surface, spec, f_source, u_range, truncated)


def _jlog_abs(x):
    if jets.value(x) < 0.0:
        return jets.jlog(-x)
    return jets.jlog(x)


def integrate_autonomous(y: Callable[[Jet], Jet], f0: float, u_range: tuple):
    """Integrate f' = y(f) from the left end of u_range to an odeint.DensePath.

    Truncates (rather than failing) when y's domain would be exited, when y
    approaches zero or changes sign (f' = 0 would break the profile) or when
    f or y runs away. y is called on floats, so only its values are
    computed; the path carries f values.
    """
    from .odeint import dormand_prince  # only the ODE families integrate
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


def profile_from_path(path, y: Callable[[Jet], Jet],
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


def _admissible(f, u: float) -> bool:
    """f > 0 and |f'| >= FPRIME_FLOOR at u."""
    try:
        fj = jet_eval(f, u)
    except DomainError:
        return False
    return fj.f > 0.0 and abs(fj.d1) >= FPRIME_FLOOR


def _closed_form_end(spec: _ClosedForm, f, u_range: tuple):
    """The realized range (u0, end) of a closed-form profile and whether it
    was truncated: end is the largest u <= u1 with f > 0 and |f'| >=
    FPRIME_FLOOR on all of [u0, u].

    The first crossing comes from the closed form; where rounding leaves it
    just outside the admissible set, it is stepped back by 1, 2, 4, ... ulps.
    """
    u0, u1 = u_range
    if not _admissible(f, u0):
        raise ProfileInvariantError(f"profile invalid at the left end of {u_range}")
    end = min(u1, spec.crossing(u0))
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
    return spec.residual(profile_point(profile, u))


def _log_tan_ratio(sin, cos, tan, a: float, b: float, h: float) -> float:
    """ln(tan(a) / tan(b)), or the same with sinh, cosh and tanh, for a
    positive ratio, with h = a - b given from the step rather than from a and b.

    tan(a) / tan(b) = 1 + sin(a - b) / (cos(a) sin(b)) keeps a small step from
    cancelling; a ratio below 1/2 is far enough from 1 to take directly.
    """
    x = sin(h) / (cos(a) * sin(b))
    return math.log1p(x) if x > -0.5 else math.log(tan(a) / tan(b))


def generate(spec: FamilySpec, f0: float | None, u_range: tuple,
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
    profile, realized, truncated = spec.realize(f0, u_range)
    return GeneratedSurface(MeridianSurface(profile, directrix), spec,
                            spec.f_source, realized, truncated)
