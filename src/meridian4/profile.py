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


@dataclass(frozen=True)
class ProfileCurve:
    """Profile f with g derived from the normalization g'(u) = -1/(2 f'(u)).

    f is a jet-capable callable; g is never user-supplied here, so the
    invariant -2 f' g' = 1 holds by construction.
    """

    f: Callable[[Jet], Jet]
    domain: tuple
    g_origin: float = 0.0

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
        fp = self.f_jet(u).d1
        if abs(fp) < FPRIME_FLOOR:
            raise ProfileInvariantError(f"f'({u}) = {fp} too close to zero")
        return -0.5 / fp


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
    if abs(jet.d1) < FPRIME_FLOOR:
        raise ProfileInvariantError(f"f'({u}) = {jet.d1} too close to zero")
    return jet.d2 / jet.d1


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


def g_from_f(p: ProfileCurve, u: float, tol: float = 1e-10) -> float:
    """g(u) = g_origin + integral from the domain's left end of -1/(2 f'(t)) dt.

    Raises ProfileInvariantError if f' changes sign over the integration range
    (the normalization would be meaningless there).
    """
    p._check(u)
    u0 = p.domain[0]
    if u == u0:
        return p.g_origin

    sign0 = None

    def integrand(t):
        nonlocal sign0
        fp = jet_eval(p.f, t).d1
        if abs(fp) < FPRIME_FLOOR:
            raise ProfileInvariantError(f"f'({t}) = {fp} too close to zero in g quadrature")
        s = 1.0 if fp > 0 else -1.0
        if sign0 is None:
            sign0 = s
        elif s != sign0:
            raise ProfileInvariantError(f"f' changes sign inside [{u0}, {u}] (at t = {t})")
        return -0.5 / fp

    return p.g_origin + adaptive_simpson(integrand, u0, u, tol=tol)
