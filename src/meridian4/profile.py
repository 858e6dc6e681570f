"""Meridian profile (f, g) under the arc-length normalization -2 f' g' = 1,
the directrix phi, and the point records each curve keeps: a profile record
holds what depends on u alone, a directrix record what depends on v alone."""

import math
from collections.abc import Callable

from .errors import (DegenerateDirectrixError, DomainError, ProfileInvariantError,
                     QuadratureLimitError)
from .jets import Jet, jet_eval
from .records import Frozen, set_fields

__all__ = [
    "ProfileCurve",
    "Directrix",
    "ProfilePoint",
    "DirectrixPoint",
    "profile_point",
    "directrix_point",
    "sample_grid",
    "g_from_f",
]

FPRIME_FLOOR = 1e-9  # |f'| below this counts as a normalization breakdown
G_TOL = 1e-10        # absolute error bound of g_from_f
_SQRT2 = math.sqrt(2.0)


def _require_fp(fp: float, u: float) -> float:
    """fp = f'(u), or ProfileInvariantError when |f'| < FPRIME_FLOOR (the
    normalization -2 f' g' = 1 breaks down there)."""
    if abs(fp) < FPRIME_FLOOR:
        raise ProfileInvariantError(f"f'({u}) = {fp} too close to zero")
    return fp


class ProfileCurve(Frozen):
    """Profile f with g derived from the normalization g'(u) = -1/(2 f'(u)).

    f is a jet-capable callable, and g follows from it: -2 f' g' = 1 fixes g
    up to g_origin, its value at the left end of the domain. g_eval, when
    given, is g on floats as derived from f without quadrature (a family's
    closed form, or the g an ODE profile's integrator carries along with f),
    so it must satisfy g' = -1/(2 f') and equal g_origin at the left end.
    Without it, g_from_f integrates g itself (_quadrature_g).
    """

    # _pass: the (path, stop) of quadrature_path once run; _points: records
    # of profile_point, by u; _rise: _rising once read
    __slots__ = ("f", "domain", "g_origin", "g_eval", "_pass", "_points", "_rise")

    def __init__(self, f: Callable[[Jet], Jet], domain: tuple, g_origin: float = 0.0,
                 g_eval: Callable[[float], float] | None = None):
        set_fields(self, f, domain, g_origin, g_eval, None, {}, None)

    def _check(self, u: float):
        u0, u1 = self.domain
        if not (u0 - 1e-12 <= u <= u1 + 1e-12):
            raise DomainError(f"u = {u} outside profile domain [{u0}, {u1}]", t=u)

    def f_jet(self, u: float) -> Jet:
        self._check(u)
        return jet_eval(self.f, u)

    @property
    def _rising(self) -> bool:
        """f'(u0) > 0: the sign f' must keep wherever g is read."""
        if self._rise is None:
            object.__setattr__(self, "_rise", profile_point(self, self.domain[0]).fp > 0)
        return self._rise


class Directrix(Frozen):
    """Directrix phi on its v-interval; regular where phi_dot^2 + phi^2 != 0."""

    __slots__ = ("phi", "domain", "_points")   # _points: records of directrix_point, by v

    def __init__(self, phi: Callable[[Jet], Jet], domain: tuple):
        set_fields(self, phi, domain, {})

    def _check(self, v: float):
        v0, v1 = self.domain
        if not (v0 - 1e-12 <= v <= v1 + 1e-12):
            raise DomainError(f"v = {v} outside directrix domain [{v0}, {v1}]", t=v)

    def phi_jet(self, v: float) -> Jet:
        self._check(v)
        return jet_eval(self.phi, v)


class ProfilePoint(Frozen):
    """The scalars of a point record that depend on u alone."""

    __slots__ = ("u", "f", "fp", "fpp", "fppp", "gp",
                 "kappa_m",   # f''/f', the meridian curvature
                 "q",         # f f'' + f'^2
                 "gamma1",    # f'/(sqrt2 f); gamma2 = -gamma1
                 "K",         # -f''/f, the Gauss curvature
                 "_terms")    # the u-only factors of the invariants, once read

    def __init__(self, u, f, fp, fpp, fppp, gp, kappa_m, q, gamma1, K):
        set_fields(self, u, f, fp, fpp, fppp, gp, kappa_m, q, gamma1, K, None)


class DirectrixPoint(Frozen):
    """The scalars of a point record that depend on v alone."""

    __slots__ = ("v", "phi", "phid",
                 "kappa",      # (phi phi'' - 2 phi'^2 - phi^2) / D^(3/2)
                 "kappa_dot",  # d kappa / dv
                 "D")          # phi'^2 + phi^2

    def __init__(self, v, phi, phid, kappa, kappa_dot, D):
        set_fields(self, v, phi, phid, kappa, kappa_dot, D)


def profile_point(p: ProfileCurve, u: float) -> ProfilePoint:
    """The record at u, from one evaluation of the profile jet per profile;
    raises ProfileInvariantError where f <= 0 or f' vanishes, and DomainError
    where a field is not finite."""
    # a zero keys with its sign: 0.0 == -0.0, but their records can differ
    key = u if u else (u, math.copysign(1.0, u))
    r = p._points.get(key)
    if r is None:
        fj = p.f_jet(u)
        if not fj.f > 0.0:
            raise ProfileInvariantError(f"f({u}) = {fj.f} is not positive")
        fp, fpp = _require_fp(fj.d1, u), fj.d2
        try:
            fields = (u, fj.f, fp, fpp, fj.d3, -0.5 / fp, fpp / fp,
                      fj.f * fpp + fp**2, fp / (_SQRT2 * fj.f), -fpp / fj.f)
        except OverflowError:
            fields = None
        r = p._points[key] = ProfilePoint(*_finite(fields, "the profile record at u", u))
    return r


def directrix_point(d: Directrix, v: float) -> DirectrixPoint:
    """The record at v, from one evaluation of the directrix jet per
    directrix; raises DegenerateDirectrixError where D < 1e-15, and
    DomainError where a field is not finite."""
    key = v if v else (v, math.copysign(1.0, v))
    r = d._points.get(key)
    if r is None:
        pj = d.phi_jet(v)
        try:
            num = pj.f * pj.d2 - 2.0 * pj.d1**2 - pj.f**2
            D = pj.d1**2 + pj.f**2
            if D < 1e-15:
                raise DegenerateDirectrixError(f"phi'^2 + phi^2 = 0 at v = {v}")
            num_dot = pj.f * pj.d3 - 3.0 * pj.d1 * pj.d2 - 2.0 * pj.f * pj.d1
            D_dot = 2.0 * pj.d1 * pj.d2 + 2.0 * pj.f * pj.d1
            fields = (v, pj.f, pj.d1, num / D**1.5,
                      num_dot / D**1.5 - 1.5 * num * D_dot / D**2.5, D)
        except OverflowError:
            fields = None
        r = d._points[key] = DirectrixPoint(*_finite(fields, "the directrix record at v", v))
    return r


def _finite(fields, where, t):
    """fields, a record's values, unless they overflowed (None) or one is not
    finite: then DomainError."""
    if fields is None or not all(map(math.isfinite, fields)):
        raise DomainError(f"{where} = {t} is not finite", t=t)
    return fields


def sample_grid(domain: tuple, n: int) -> list:
    """n equally spaced points from domain[0] to domain[1], both ends
    included; [domain[0]] for n = 1. No point lies past domain[1], where
    rounding would put the last one an ulp beyond it."""
    lo, hi = domain
    if n == 1:
        return [lo]
    return [min(lo + (hi - lo) * i / (n - 1), hi) for i in range(n)]


def _checked_g_prime(p: ProfileCurve, fp: float, t: float) -> float:
    """g'(t) = -1/(2 fp) for fp = f'(t)."""
    fp = _require_fp(fp, t)
    if (fp > 0) != p._rising:
        raise ProfileInvariantError(
            f"f' changes sign inside [{p.domain[0]}, {t}]")
    if 0.5 / abs(fp) * math.ulp(t) > G_TOL:
        # next to a zero of f' g diverges like log: one ulp of t moves it
        # by more than the tolerance, so no method can meet G_TOL there
        raise QuadratureLimitError(
            f"g' = {-0.5 / fp} at t = {t}: g is not resolvable to {G_TOL} there")
    return -0.5 / fp


def _quadrature_g(p: ProfileCurve, u: float) -> float:
    """g(u) from one Dormand-Prince pass of g' = -1/(2 f') over the whole
    domain, run at the first call, whose integrand keeps the checks of
    _checked_g_prime; past where the pass ended early, the error that ended
    it."""
    if p._pass is None:
        from .odeint import quadrature_path  # only a profile without g_eval integrates g
        object.__setattr__(p, "_pass", quadrature_path(
            lambda t: _checked_g_prime(p, jet_eval(p.f, t).d1, t), *p.domain, G_TOL))
    path, stop = p._pass
    if stop is not None and (path is None or u > path.t1):
        raise stop.with_traceback(None)
    return p.g_origin + path.g(u, G_TOL)


def g_from_f(p: ProfileCurve, u: float) -> float:
    """g(u) = g_origin + integral from the domain's left end of -1/(2 f'(t)) dt,
    to absolute error G_TOL.

    Checks at u, then reads the profile's g: g_eval, or the quadrature pass
    of an expression profile. Raises ProfileInvariantError if f' vanishes at
    u or has a sign other than at u0, and QuadratureLimitError where one ulp
    of u moves g by more than G_TOL (g is not resolvable next to a zero of
    f'); a g read from a Dormand-Prince path also raises where the path's
    summed error estimate up to u exceeds G_TOL. Where g's arithmetic fails
    at u (a closed form's division by zero, overflow or math domain error)
    it raises DomainError.
    """
    p._check(u)
    if u == p.domain[0]:
        return p.g_origin
    _checked_g_prime(p, profile_point(p, u).fp, u)
    try:
        return p.g_eval(u) if p.g_eval is not None else _quadrature_g(p, u)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise DomainError(f"g({u}) is not representable: {exc}", t=u) from None
