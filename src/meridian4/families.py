"""Generators for the five classified families of meridian surfaces of
parabolic type: constant Gauss curvature, constant mean curvature, constant
invariant k, Chen surfaces, and parallel normal bundle.

Each family is one spec class, which holds all that depends on the family:
its profile, its defining relation, the invariants it keeps constant and the
curvature its directrix needs. Four families have their profile in closed
form: constant Gauss and parallel case a, and constant k and Chen, whose
autonomous equation f' = y(f) has an elementary solution from f0. Each of
them has one solve(f0, u0), giving f, g, g(u0) and where the profile must
end, and they share one realize. The other two (constant mean, parallel
case b) integrate f' = y(f) once with the error-controlled Dormand-Prince
5(4) pair and its dense output; such a profile whose error estimate exceeds
RESIDUAL_TOL relative to f raises ProfileInvariantError rather than being
returned. The directrix of constant curvature kappa = b that four families
need is in closed form: a constant phi for b < 0, a circle in polar form for
b > 0.
"""

import math
from collections.abc import Callable

from . import jets
from .errors import DomainError, ProfileInvariantError, SpecMismatchError
from .jets import Jet, jet_eval, jet_function_from_derivs
from .profile import (FPRIME_FLOOR, G_TOL, Directrix, ProfileCurve,
                      directrix_point, sample_grid)
from .records import Frozen, set_fields
from .surface import MeridianSurface

__all__ = [
    "ConstantGauss", "ConstantMean", "ConstantK", "Chen",
    "ParallelA", "ParallelB", "FamilySpec", "GeneratedSurface",
    "integrate_autonomous",
    "constant_kappa_directrix", "generate",
]

RESIDUAL_TOL = 1e-6
PROFILE_SAMPLES = 50  # u rows of verify's defining and target rows, from end to end
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


def _refuse_f0(spec, f0):
    if f0 is not None:
        raise SpecMismatchError(
            f"{type(spec).__name__} is in closed form and takes no f0")


def _require_f0(f0):
    if f0 is None or not 0.0 < f0 < math.inf:
        raise SpecMismatchError(
            f"ODE variants need a finite starting value f0 > 0, got {f0!r}")


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
      f_source says: from the family's solve for a closed form, by
      integrating f' = y(f) for an ODE family;
    - residual(p): the relative residual of the family's defining relation
      at the ProfilePoint p;
    - targets: (label, InvariantRecord field, value, tolerance) for each
      invariant the family keeps constant.
    """

    __slots__ = ()


class _ClosedForm(FamilySpec):
    """A family with its profile in closed form. solve(f0, u0) gives the
    jet-capable f, g on floats, g(u0) and the first u > u0 where the profile
    must end: where f = 0 or |f'| = FPRIME_FLOOR (inf if none), for a
    profile that is admissible at u0. realize is the one place where the
    closed form's arithmetic failing (a division by zero, an overflow, a
    math domain error) becomes a DomainError; a profile inadmissible at u0
    raises ProfileInvariantError. ConstantGauss and ParallelA take any
    directrix and no f0."""

    __slots__ = ()
    kappa_constant = None
    f_source = "closed-form"
    _bound = math.inf   # the bound on f and |f'| of the realized range

    def realize(self, f0: float | None, u_range: tuple):
        u0 = u_range[0]
        try:
            f, g, g0, crossing = self.solve(f0, u0)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise DomainError(f"the closed form of {type(self).__name__} is not "
                              f"representable from u = {u0}: {exc}", t=u0) from None
        realized, truncated = _closed_form_end(f, crossing, u_range, self._bound)
        return ProfileCurve(f, realized, g0, g_eval=g), realized, truncated


class _Autonomous(FamilySpec):
    """A family whose profile solves f' = y(f) from f0 > 0, over a directrix
    of constant curvature kappa = b: y() is the jet-capable y, which on a
    float gives the float y(t). realize integrates it, and raises
    ProfileInvariantError where the path's summed error estimate of f at its
    end exceeds RESIDUAL_TOL max(1, max f over the nodes). No row of the
    defining relation is checked: f' = y(f) and f'' = y'(f) y(f), read from
    y's jet, make it an identity in f, blind to integrator error."""

    __slots__ = ()
    f_source = "ode-integrated"

    @property
    def kappa_constant(self):
        return self.b

    def realize(self, f0: float | None, u_range: tuple):
        _require_f0(f0)
        y = self.y()
        path = integrate_autonomous(y, f0, u_range)
        err = path.yerr[-1]
        bound = RESIDUAL_TOL * max(1.0, f0, *(r0 + r1 for r0, r1, *_ in path.coef))
        if not err <= bound:
            raise ProfileInvariantError(
                f"f's summed error estimate {err:.3e} at u = {path.t1} exceeds {bound:.3e}")
        return profile_from_path(path, y), (path.t0, path.t1), path.truncated


class _Solved(_ClosedForm):
    """A closed-form family whose profile solves f' = y(f) from f0 > 0 over
    a directrix of constant curvature kappa = b: y() is the jet-capable y,
    and slope_quadratic(X) a quadratic (a, b, c) whose positive roots are
    the t with y(t) = X. Its solve starts from _start(f0) = y(f0), gives g
    with g(u0) = 0 and ends at _level_end(u0, u_at), for u_at(t) the u where
    f = t (NaN where it never is): where integrate_autonomous would stop,
    where f reaches 0 or _F_BOUND or |f'| reaches _F_BOUND or FPRIME_FLOOR."""

    __slots__ = ()
    kappa_constant = _Autonomous.kappa_constant
    _bound = _F_BOUND

    def _start(self, f0: float) -> float:
        """y(f0), for a finite f0 > 0 where f and f' start inside the bounds."""
        _require_f0(f0)
        y0 = _start_slope(self.y(), f0)
        if not (f0 <= _F_BOUND and abs(y0) <= _F_BOUND):
            raise ProfileInvariantError(
                f"y(f0) = {y0} at f0 = {f0}: f or f' starts beyond {_F_BOUND}")
        return y0

    def _level_end(self, u0: float, u_at) -> float:
        levels = [0.0, _F_BOUND] + [
            t for X in (_F_BOUND, -_F_BOUND, FPRIME_FLOOR, -FPRIME_FLOOR)
            for t in _positive_roots(*self.slope_quadratic(X))]
        return _first_after(u0, map(u_at, levels))


class ConstantGauss(_ClosedForm):
    """Surfaces with Gauss curvature K = const != 0; profile in closed form."""
    __slots__ = ("K", "alpha", "beta")

    def __init__(self, K: float, alpha: float, beta: float):
        _require_nonzero("K", K)
        _require_nonzero("alpha or beta", alpha or beta)   # else f = 0
        set_fields(self, K, alpha, beta)

    def solve(self, f0: float | None, u0: float):
        """g = scale (G(u) - G(u0)) for the antiderivative G of each case. The
        difference is never taken of two rounded values of G, and its step
        r (u - u0) comes from u - u0, so its error stays relative to g where
        the scale is large (small |K|, or P Q near 0)."""
        _refuse_f0(self, f0)
        K, al, be = self.K, self.alpha, self.beta
        if K > 0:
            # f = alpha cos(r u) + beta sin(r u) = A cos(theta), theta = r u - delta,
            # f' = -A r sin(theta)
            r, A, delta = math.sqrt(K), math.hypot(al, be), math.atan2(be, al)
            if A * r < FPRIME_FLOOR:
                raise ProfileInvariantError(f"|f'| <= A r = {A * r} < {FPRIME_FLOOR} everywhere")

            def f(x):
                return al * jets.jcos(r * x) + be * jets.jsin(r * x)

            # dg = dtheta / (2 A r^2 sin(theta)), G = ln|tan(theta / 2)|
            scale = 0.5 / (A * K)
            b = 0.5 * (r * u0 - delta)

            def g(u):
                return scale * _log_tan_ratio(math.sin, math.cos, math.tan,
                                              0.5 * (r * u - delta), b, 0.5 * r * (u - u0))

            # the end is the next multiple of pi/2 above theta(u0); f vanishes at
            # its odd multiples and f' at its even ones
            k = math.floor((r * u0 - delta) / (0.5 * math.pi)) + 1
            theta = 0.5 * math.pi * k
            if k % 2 == 0:
                theta -= math.asin(FPRIME_FLOOR / (A * r))
            ends = [(theta + delta) / r]
        else:
            # f = alpha cosh(r u) + beta sinh(r u) = P e^(r u) + Q e^(-r u),
            # without the cancellation of cosh - sinh
            r, P, Q = math.sqrt(-K), 0.5 * (al + be), 0.5 * (al - be)

            def f(x):
                return P * jets.jexp(r * x) + Q * jets.jexp(-r * x)

            # w = e^(r u) turns dg = -du / (2 f') into -dw / (2 r^2 (P w^2 - Q))
            if P == 0.0:
                # G = e^(r u)
                scale = -0.5 / (K * Q)

                def g(u):
                    return scale * (math.exp(r * u0) * math.expm1(r * (u - u0)))
            elif Q == 0.0:
                # G = e^(-r u)
                scale = -0.5 / (K * P)

                def g(u):
                    return scale * (math.exp(-r * u0) * math.expm1(-r * (u - u0)))
            else:
                # z = r u - x0 with e^(2 x0) = |Q / P|
                x0 = 0.5 * math.log(abs(Q / P))
                root = math.copysign(math.sqrt(abs(P * Q)), P)
                if P * Q > 0.0:
                    # P w^2 - Q = P (w - s)(w + s), s = e^x0: f' vanishes at z = 0;
                    # G = ln|tanh(z / 2)|
                    scale = 0.25 / (K * root)
                    b = 0.5 * (r * u0 - x0)

                    def g(u):
                        return scale * _log_tan_ratio(math.sinh, math.cosh, math.tanh,
                                                      0.5 * (r * u - x0), b, 0.5 * r * (u - u0))
                else:
                    # P w^2 - Q = P (w^2 + t^2), t = e^x0: G = atan(e^z), and
                    # atan(e^z) - atan(e^z0) = atan(sinh((z - z0) / 2) / cosh((z + z0) / 2))
                    scale = 0.5 / (K * root)
                    m0 = 0.5 * r * u0 - x0

                    def g(u):
                        return scale * math.atan(math.sinh(0.5 * r * (u - u0))
                                                 / math.cosh(0.5 * r * u + m0))

            # f = 0 and f' = r (P w - Q / w) = +-FPRIME_FLOOR are quadratics in w
            c = FPRIME_FLOOR / r
            ws = (_positive_roots(P, 0.0, Q) + _positive_roots(P, -c, -Q)
                  + _positive_roots(P, c, -Q))
            ends = [math.log(w) / r for w in ws]
        return f, g, 0.0, _first_after(u0, ends)

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


class ConstantK(_Solved):
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

    def slope_quadratic(self, X: float) -> tuple:
        return self.branch * self.a / (2.0 * self.b), 0.0, self.c - X

    def solve(self, f0: float | None, u0: float):
        # f' = c + alpha f^2, a Riccati equation with constant coefficients
        y0, c = self._start(f0), self.c
        alpha = self.branch * self.a / (2.0 * self.b)
        if c * alpha > 0.0:
            # f' = alpha (f^2 + r^2): f = r tan(theta), theta = alpha r (u - u0) + theta0
            r = math.sqrt(c / alpha)
            omega, theta0 = alpha * r, math.atan(f0 / r)

            def f(x):
                return r * jets.jtan(omega * (x - u0) + theta0)

            def u_at(t):
                return u0 + (math.atan(t / r) - theta0) / omega
        elif c * alpha < 0.0:
            # f' = alpha (f^2 - rho^2): f = rho tanh(z) below rho, rho coth(z)
            # above it, z = z0 - alpha rho (u - u0)
            rho = math.sqrt(-c / alpha)
            below, kappa = f0 < rho, -alpha * rho
            z0 = math.atanh(f0 / rho if below else rho / f0)

            def f(x):
                th = jets.jtanh(kappa * (x - u0) + z0)
                return rho * th if below else rho / th

            def u_at(t):
                if not ((t < rho) if below else (t > rho)):
                    return math.nan
                return u0 + (math.atanh(t / rho if below else rho / t) - z0) / kappa
        else:
            # f' = alpha f^2: 1/f = 1/f0 - alpha (u - u0), and f never reaches 0
            def f(x):
                return f0 / (1.0 - alpha * f0 * (x - u0))

            def u_at(t):
                return u0 + (1.0 / f0 - 1.0 / t) / alpha if t else math.nan
        m = 4.0 * c * alpha

        def g(u):
            # g' = -1/(2 y(f)) integrates to -(f - f0) / (2 y y0) - alpha D(m, h),
            # h = u - u0, with D = (h - sin(w h) / w) / w^2 for w^2 = m = 4 c alpha:
            # no division by c, so c = 0 (D = h^3 / 6) needs no case. y is f'
            # from the jet: c + alpha f^2 cancels where f nears rho
            fj = jet_eval(f, u)
            return -(fj.f - f0) / (2.0 * fj.d1 * y0) - alpha * _sine_defect(m, u - u0)
        return f, g, 0.0, self._level_end(u0, u_at)

    def residual(self, p) -> float:
        return _relative(self.b * p.fpp, self.branch * self.a * p.f * p.fp)

    @property
    def targets(self):
        return ((f"k=={-self.a**2}", "k", -self.a**2, 1e-6),)


class Chen(_Solved):
    """Chen surfaces (invariant lambda = 0); needs kappa = const = b."""
    __slots__ = ("b", "c", "exponent_branch")

    def __init__(self, b: float, c: float, exponent_branch: int):
        _require_nonzero("b", b)
        _require_nonzero("c", c)
        _require_sign("exponent_branch", exponent_branch)
        set_fields(self, b, c, exponent_branch)

    def _rates(self) -> tuple:
        """(A, B) with y(t) = A t + B / t; A B = b^2 / 4 > 0."""
        A, B = 0.5 * self.c, 0.5 * self.b * self.b / self.c
        return (B, A) if self.exponent_branch == -1 else (A, B)

    def y(self):
        # (c^2 t^2s + b^2) / (2 c t^s) as c t^s / 2 + (b^2 / 2c) t^-s: the
        # quotient's third derivative cubes the derivative of c t^s, which
        # overflows next to t = 0 while y''' itself does not. With s = +-1
        # that is A t + B (1 / t).
        A, B = self._rates()

        def y(t):
            tv = jets.value(t)
            if tv <= 0.0:
                raise DomainError("t must be positive", t=tv)
            return A * t + B * (1.0 / t)
        return y

    def slope_quadratic(self, X: float) -> tuple:
        A, B = self._rates()
        return A, -X, B

    def solve(self, f0: float | None, u0: float):
        # f f' = A f^2 + B is linear in f^2: f^2 + beta = S e^(2 A (u - u0)),
        # beta = B / A > 0, S = f0^2 + beta
        self._start(f0)
        A, B = self._rates()
        beta = B / A
        S, rb = f0 * f0 + beta, math.sqrt(beta)

        def f(x):
            return jets.jsqrt(S * jets.jexp(2.0 * A * (x - u0)) - beta)

        def u_at(t):
            return u0 + math.log((t * t + beta) / S) / (2.0 * A)

        # with psi = atan(f / sqrt(beta)), g = -(psi - sin(psi) cos(psi)) /
        # (4 A^2 sqrt(beta)); its change from psi0 is written as two terms of
        # the sign of psi - psi0, which do not cancel where psi is small
        psi0, scale = math.atan(f0 / rb), -0.25 / (A * A * rb)

        def g(u):
            dpsi = math.atan(f(u) / rb) - psi0
            s = math.sin(psi0 + 0.5 * dpsi)
            return scale * (_sine_defect(1.0, dpsi) + 2.0 * math.sin(dpsi) * (s * s))
        return f, g, 0.0, self._level_end(u0, u_at)

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

    def solve(self, f0: float | None, u0: float):
        _refuse_f0(self, f0)
        if self.sign != 1:
            raise SpecMismatchError(
                "sign=-1 gives f < 0 everywhere; the profile requires f > 0")
        c, dd, a = self.c, self.d, self.a

        def f(x):
            return jets.jsqrt(c * x + dd)

        def g(x):
            return -(2.0 / (3.0 * c * c)) * (c * x + dd) ** 1.5 + a

        # f = sqrt(c u + d) vanishes at -d/c; |f'| = c / (2 f) meets the floor
        # where c u + d = (c / (2 FPRIME_FLOOR))^2
        end = _first_after(u0, [-dd / c, ((c / (2.0 * FPRIME_FLOOR))**2 - dd) / c])
        # realize refuses an inadmissible left end before g(u0) is read, which
        # need not exist there (3 c^2 underflowing to 0, say)
        return f, g, g(u0) if _admissible(f, u0, math.inf) else math.nan, end

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
    sign0 = 1.0 if _start_slope(y, f0) > 0 else -1.0

    def rhs(t):
        if not 0.0 < t < _F_BOUND:
            raise DomainError(f"f = {t} outside (0, {_F_BOUND})", t=t)
        yv = y(t)
        if abs(yv) < FPRIME_FLOOR or yv * sign0 < 0 or abs(yv) > _F_BOUND:
            raise DomainError(f"f' = {yv} at f = {t} vanishes, changes sign or "
                              f"runs away", t=t)
        return yv

    return dormand_prince(rhs, u_range[0], u_range[1], f0)


def _start_slope(y: Callable[[Jet], Jet], f0: float) -> float:
    """y(f0), or ProfileInvariantError where |y(f0)| < FPRIME_FLOOR."""
    y0 = y(f0)
    if abs(y0) < FPRIME_FLOOR:
        raise ProfileInvariantError(f"y(f0) = {y0} at f0 = {f0}: f' = 0 at the start")
    return y0


def profile_from_path(path, y: Callable[[Jet], Jet]) -> ProfileCurve:
    """ProfileCurve backed by the dense ODE solution; f' = y(f), f'' and
    f''' come from the jet of y at f via f'' = y'y, f''' = (y''y + y'^2) y,
    and g is the path's g, 0 at its left end. A g whose accumulated error
    estimate up to u exceeds G_TOL raises QuadratureLimitError."""

    def derivs(u):
        fval = path(u)
        yj = jet_eval(y, fval)
        return (fval, yj.f, yj.d1 * yj.f, (yj.d2 * yj.f + yj.d1**2) * yj.f)

    def g_eval(u):
        return path.g(u, G_TOL)

    return ProfileCurve(jet_function_from_derivs(derivs), (path.t0, path.t1),
                        g_eval=g_eval)


def _positive_roots(a: float, b: float, c: float) -> list:
    """The positive real roots of a w^2 + b w + c = 0, from the
    cancellation-free pair of roots q/a and c/q."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    ws = ([q / a] if a else []) + ([c / q] if q else [])
    return [w for w in ws if w > 0.0]


def _sine_defect(m: float, h: float) -> float:
    """(h - sin(w h) / w) / m for m = w^2 > 0, with sinh for m = -w^2 < 0
    and h^3 / 6 at m = 0: the sum of (-m)^n h^(2n+3) / (2n+3)!. Where
    |m| h^2 < 1 the difference would cancel, and the first eight terms of
    the sum leave out less than 1e-16 of it."""
    x = m * h * h
    if abs(x) >= 1.0:
        w = math.sqrt(abs(m))
        return (h - (math.sin(w * h) if m > 0.0 else math.sinh(w * h)) / w) / m
    term = total = h * h * h / 6.0
    for k in range(4, 18, 2):
        term *= -x / (k * (k + 1))
        total += term
    return total


def _admissible(f, u: float, bound: float) -> bool:
    """0 < f <= bound and FPRIME_FLOOR <= |f'| <= bound at u."""
    try:
        fj = jet_eval(f, u)
    except DomainError:
        return False
    return 0.0 < fj.f <= bound and FPRIME_FLOOR <= abs(fj.d1) <= bound


def _closed_form_end(f, crossing: float, u_range: tuple, bound: float):
    """The realized range (u0, end) of a closed-form profile and whether it
    was truncated: end is the largest u <= u1 with f and f' admissible
    (_admissible under bound) on all of [u0, u].

    The first crossing, from the closed form, is given; where rounding
    leaves it just outside the admissible set, it is stepped back by 1, 2,
    4, ... ulps.
    """
    u0, u1 = u_range
    if not _admissible(f, u0, bound):
        raise ProfileInvariantError(f"profile invalid at the left end of {u_range}")
    end = min(u1, crossing)
    step = math.ulp(end)
    for _ in range(_STEP_BACKS):
        if end <= u0 or _admissible(f, end, bound):
            break
        end, step = end - step, 2.0 * step
    if end <= u0 or not _admissible(f, end, bound):
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
    the required constant (tolerance 1e-8 on a v-grid). Constant Gauss and
    parallel case a take no f0 (SpecMismatchError if one is given); the
    f' = y(f) families start from f0. A closed-form profile ends exactly
    where f reaches 0 or |f'| reaches FPRIME_FLOOR, or, for constant k and
    Chen, where f or f' reaches the runaway bound (the largest u <= u1
    admissible on all of [u0, u]); its arithmetic failing raises DomainError.
    An ODE profile ends where the integration stops, and raises
    ProfileInvariantError where the path's summed error estimate exceeds
    RESIDUAL_TOL max(1, max f over the nodes). No profile record is built.
    An early end is reported via `truncated`, not as a failure; a profile
    that fails at u0 itself raises ProfileInvariantError.
    """
    required_kappa = spec.kappa_constant
    if required_kappa is not None:
        _check_directrix_kappa(directrix, required_kappa)
    profile, realized, truncated = spec.realize(f0, u_range)
    return GeneratedSurface(MeridianSurface(profile, directrix), spec,
                            spec.f_source, realized, truncated)
