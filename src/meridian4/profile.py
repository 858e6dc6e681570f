"""Meridian profile (f, g) under the arc-length normalization -2 f' g' = 1,
the directrix phi, and their scalar curvatures."""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import DegenerateDirectrixError, DomainError, ProfileInvariantError
from .jets import Jet, jet_eval
from .quadrature import adaptive_simpson

__all__ = [
    "ProfileCurve",
    "Directrix",
    "ValidationReport",
    "validate_profile",
    "kappa_m",
    "kappa",
    "g_from_f",
    "meridian_curvature_general",
]

FPRIME_FLOOR = 1e-9  # |f'| below this counts as a normalization breakdown
G_PANELS = 64        # equal panels of the profile domain in the g table
G_TOL = 1e-10        # absolute error bound of g_from_f


def _require_fprime(fp: float, u: float) -> float:
    """fp = f'(u), or ProfileInvariantError when |f'| < FPRIME_FLOOR (the
    normalization -2 f' g' = 1 breaks down there)."""
    if abs(fp) < FPRIME_FLOOR:
        raise ProfileInvariantError(f"f'({u}) = {fp} too close to zero")
    return fp


@dataclass(frozen=True)
class ProfileCurve:
    """Profile f with g derived from the normalization g'(u) = -1/(2 f'(u)).

    f is a jet-capable callable; g is never user-supplied here, so the
    invariant -2 f' g' = 1 holds by construction.
    """

    f: Callable[[Jet], Jet]
    domain: tuple
    g_origin: float = 0.0
    # g table, filled by g_from_f: [f'(u0) > 0, g at node 0, g at node 1, ...]
    _g_table: list = field(default_factory=list, init=False, repr=False,
                           compare=False)

    def _check(self, u: float):
        u0, u1 = self.domain
        if not (u0 - 1e-12 <= u <= u1 + 1e-12):
            raise DomainError(f"u = {u} outside profile domain [{u0}, {u1}]", t=u)

    def f_jet(self, u: float) -> Jet:
        self._check(u)
        return jet_eval(self.f, u)

    def g(self, u: float) -> float:
        return g_from_f(self, u)

    def g_prime(self, u: float) -> float:
        return -0.5 / _require_fprime(self.f_jet(u).d1, u)


@dataclass(frozen=True)
class Directrix:
    """Directrix phi on its v-interval; regular where phi_dot^2 + phi^2 != 0."""

    phi: Callable[[Jet], Jet]
    domain: tuple

    def _check(self, v: float):
        v0, v1 = self.domain
        if not (v0 - 1e-12 <= v <= v1 + 1e-12):
            raise DomainError(f"v = {v} outside directrix domain [{v0}, {v1}]", t=v)

    def phi_jet(self, v: float) -> Jet:
        self._check(v)
        return jet_eval(self.phi, v)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    predicate: Optional[str] = None
    location: Optional[float] = None

    def __bool__(self):
        return self.ok


def validate_profile(p: ProfileCurve, samples: int) -> ValidationReport:
    """Check f > 0 and |f'| >= FPRIME_FLOOR on a uniform sample grid.

    Returns a report (never raises for a failed predicate); the first
    violating u is recorded.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    u0, u1 = p.domain
    for i in range(samples):
        u = u0 + (u1 - u0) * i / (samples - 1)
        jet = p.f_jet(u)
        if not jet.f > 0.0:
            return ValidationReport(False, "f > 0", u)
        if abs(jet.d1) < FPRIME_FLOOR:
            return ValidationReport(False, "f' != 0", u)
    return ValidationReport(True)


def kappa_m(p: ProfileCurve, u: float) -> float:
    """Meridian curvature f''/f' (arc-length normalized profile)."""
    jet = p.f_jet(u)
    return jet.d2 / _require_fprime(jet.d1, u)


def meridian_curvature_general(f: Callable[[Jet], Jet], g: Callable[[Jet], Jet],
                               u: float) -> float:
    """Meridian curvature (f' g'' - g' f'') / (-2 f' g')^(3/2) for an
    unnormalized (f, g) pair."""
    fj = jet_eval(f, u)
    gj = jet_eval(g, u)
    denom = -2.0 * fj.d1 * gj.d1
    if denom <= 0.0:
        raise ProfileInvariantError(f"-f' g' <= 0 at u = {u}")
    return (fj.d1 * gj.d2 - gj.d1 * fj.d2) / denom**1.5


def _kappa_parts(pj: Jet):
    num = pj.f * pj.d2 - 2.0 * pj.d1**2 - pj.f**2
    den = pj.d1**2 + pj.f**2
    return num, den


def kappa(d: Directrix, v: float) -> float:
    """Directrix curvature (phi phi'' - 2 phi'^2 - phi^2) / (phi'^2 + phi^2)^(3/2)."""
    pj = d.phi_jet(v)
    num, den = _kappa_parts(pj)
    if den < 1e-15:
        raise DegenerateDirectrixError(f"phi'^2 + phi^2 = 0 at v = {v}")
    return num / den**1.5


def _g_node(p: ProfileCurve, j: int) -> float:
    u0, u1 = p.domain
    return u1 if j == G_PANELS else u0 + (u1 - u0) * j / G_PANELS


def g_from_f(p: ProfileCurve, u: float) -> float:
    """g(u) = g_origin + integral from the domain's left end of -1/(2 f'(t)) dt,
    to absolute error G_TOL.

    The profile keeps g at the left ends of G_PANELS equal panels of its
    domain, filled left to right only as far as queries reach; a query adds
    the integral from the left end of its own panel. Each panel integral is
    one fixed computation and the nodes are summed in index order, so g(u)
    does not depend on which points were queried before.

    Raises ProfileInvariantError if f' vanishes or changes sign (from its
    sign at u0) over [u0, u]: the normalization would be meaningless there.
    """
    p._check(u)
    u0, u1 = p.domain
    if u == u0:
        return p.g_origin
    table = p._g_table
    if not table:
        table += [_require_fprime(jet_eval(p.f, u0).d1, u0) > 0, p.g_origin]
    positive = table[0]

    def integrand(t):
        fp = _require_fprime(jet_eval(p.f, t).d1, t)
        if (fp > 0) != positive:
            raise ProfileInvariantError(f"f' changes sign inside [{u0}, {u}] (at t = {t})")
        return -0.5 / fp

    # int() truncates toward zero: u in the domain slack left of u0 is in panel 0
    k = min(int((u - u0) / (u1 - u0) * G_PANELS), G_PANELS - 1)
    while len(table) < k + 2:
        j = len(table) - 2
        table.append(table[-1] + adaptive_simpson(
            integrand, _g_node(p, j), _g_node(p, j + 1), tol=G_TOL / (2 * G_PANELS)))
    return table[k + 1] + adaptive_simpson(integrand, _g_node(p, k), u, tol=G_TOL / 2)
