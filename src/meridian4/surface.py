"""Meridian surface of parabolic type: embedding, tangent/normal/geometric
frames, first fundamental form, and point classification.

The surface is z(u,v) = f phi cos v e1 + f phi sin v e2
+ (f phi^2/2 + g) xi1 + f xi2 over a profile (f, g) and directrix phi.
"""

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import (DegenerateDirectrixError, FlatPointError,
                     MarginallyTrappedError, ProfileInvariantError)
from .minkowski import Vec4, from_lightlike
from .profile import (FPRIME_FLOOR, Directrix, ProfileCurve, _kappa_parts,
                      g_from_f)

__all__ = [
    "MeridianSurface",
    "TangentFrame",
    "NormalFrame",
    "PointCase",
    "PointData",
    "embed",
    "tangent_frame",
    "first_fundamental_form",
    "normal_frame",
    "normal_pair",
    "classify_point",
    "point_data",
]

_SQRT2 = math.sqrt(2.0)
CLASSIFY_TOL = 1e-9


class PointCase(enum.Enum):
    HYPERPLANAR_FLAT = "hyperplanar-flat"          # kappa = 0
    DEVELOPABLE_RULED_FLAT = "developable-ruled"   # kappa_m = 0
    MARGINALLY_TRAPPED = "marginally-trapped"      # <H,H> = 0, kappa*kappa_m != 0
    GENERAL = "general"


@dataclass(frozen=True)
class MeridianSurface:
    profile: ProfileCurve
    directrix: Directrix


@dataclass(frozen=True)
class TangentFrame:
    X: Vec4
    Y: Vec4
    xdir: Vec4  # principal tangent (X+Y)/sqrt2
    ydir: Vec4  # principal tangent (-X+Y)/sqrt2


@dataclass(frozen=True)
class NormalFrame:
    n1: Vec4
    n2: Vec4
    b: Optional[Vec4]
    l: Optional[Vec4]
    epsilon: int  # sign of <H,H>; 0 when b, l undefined


@dataclass(frozen=True)
class PointData:
    """All scalars the frames and invariants need at one (u, v), and the
    point's case under CLASSIFY_TOL."""

    u: float
    v: float
    f: float
    fp: float
    fpp: float
    fppp: float
    gp: float
    phi: float
    phid: float
    phidd: float
    kappa: float
    kappa_dot: float   # d kappa / dv
    kappa_m: float
    D: float           # phi'^2 + phi^2
    q: float           # f f'' + f'^2
    disc: float        # kappa^2 f'^2 - q^2  (sign of <H,H>)
    case: PointCase = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "case", self.classify(CLASSIFY_TOL))

    def classify(self, tol: float) -> PointCase:
        """The point's case with degeneracies decided under tolerance tol."""
        if abs(self.kappa) <= tol:
            return PointCase.HYPERPLANAR_FLAT
        if abs(self.kappa_m) <= tol:
            return PointCase.DEVELOPABLE_RULED_FLAT
        scale = max(abs(self.kappa * self.fp), abs(self.q), tol)
        if abs(self.disc) <= tol * scale**2:
            return PointCase.MARGINALLY_TRAPPED
        return PointCase.GENERAL


def point_data(s: MeridianSurface, u: float, v: float) -> PointData:
    """One evaluation of the profile and directrix jets at (u, v); the
    frames, the invariants and the oracle all derive from this record."""
    fj = s.profile.f_jet(u)
    if abs(fj.d1) < FPRIME_FLOOR:
        raise ProfileInvariantError(f"f'({u}) = {fj.d1} too close to zero")
    pj = s.directrix.phi_jet(v)
    num, D = _kappa_parts(pj)
    if D < 1e-15:
        raise DegenerateDirectrixError(f"phi'^2 + phi^2 = 0 at v = {v}")
    num_dot = pj.f * pj.d3 - 3.0 * pj.d1 * pj.d2 - 2.0 * pj.f * pj.d1
    D_dot = 2.0 * pj.d1 * pj.d2 + 2.0 * pj.f * pj.d1
    k = num / D**1.5
    q = fj.f * fj.d2 + fj.d1**2
    return PointData(
        u=u, v=v,
        f=fj.f, fp=fj.d1, fpp=fj.d2, fppp=fj.d3,
        gp=-0.5 / fj.d1,
        phi=pj.f, phid=pj.d1, phidd=pj.d2,
        kappa=k, kappa_dot=num_dot / D**1.5 - 1.5 * num * D_dot / D**2.5,
        kappa_m=fj.d2 / fj.d1,
        D=D, q=q, disc=k**2 * fj.d1**2 - q**2,
    )


def embed(s: MeridianSurface, u: float, v: float) -> Vec4:
    """The point z(u, v) in e-coordinates."""
    fj = s.profile.f_jet(u)
    pj = s.directrix.phi_jet(v)
    g = g_from_f(s.profile, u)
    return from_lightlike(
        fj.f * pj.f * math.cos(v),
        fj.f * pj.f * math.sin(v),
        fj.f * pj.f**2 / 2.0 + g,
        fj.f,
    )


def _tangent_frame(d: PointData) -> TangentFrame:
    cv, sv = math.cos(d.v), math.sin(d.v)
    z_u = from_lightlike(
        d.fp * d.phi * cv,
        d.fp * d.phi * sv,
        d.fp * d.phi**2 / 2.0 + d.gp,
        d.fp,
    )
    z_v = from_lightlike(
        d.f * (d.phid * cv - d.phi * sv),
        d.f * (d.phid * sv + d.phi * cv),
        d.f * d.phi * d.phid,
        0.0,
    )
    Y = z_v / (d.f * math.sqrt(d.D))
    X = z_u
    return TangentFrame(X, Y, (X + Y) / _SQRT2, (-1.0 * X + Y) / _SQRT2)


def tangent_frame(s: MeridianSurface, u: float, v: float) -> TangentFrame:
    """Orthonormal tangents X = z_u, Y = z_v/(f sqrt(D)) and the principal
    tangents x = (X+Y)/sqrt2, y = (-X+Y)/sqrt2."""
    return _tangent_frame(point_data(s, u, v))


def first_fundamental_form(s: MeridianSurface, u: float, v: float) -> tuple:
    """(E, F, G) = (-2 f' g', 0, f^2 (phi'^2 + phi^2)); E = 1 under the
    normalization."""
    d = point_data(s, u, v)
    return (-2.0 * d.fp * d.gp, 0.0, d.f**2 * d.D)


def classify_point(s: MeridianSurface, u: float, v: float,
                   tol: float = CLASSIFY_TOL) -> PointCase:
    return point_data(s, u, v).classify(tol)


def _normal_pair(d: PointData) -> tuple:
    cv, sv = math.cos(d.v), math.sin(d.v)
    rD = math.sqrt(d.D)
    n1 = from_lightlike(
        (d.phid * sv + d.phi * cv) / rD,
        (-d.phid * cv + d.phi * sv) / rD,
        d.phi**2 / rD,
        0.0,
    )
    # Orientation fixed so that z_uu = -kappa_m n2 and
    # H = kappa/(2f) n1 - (f f''+f'^2)/(2 f f') n2 hold with <n2,n2> = -1.
    n2 = from_lightlike(
        -d.fp * d.phi * cv,
        -d.fp * d.phi * sv,
        -(d.fp * d.phi**2 - 2.0 * d.gp) / 2.0,
        -d.fp,
    )
    return n1, n2


def normal_pair(s: MeridianSurface, u: float, v: float) -> tuple:
    """The orthonormal normals (n1, n2) with <n1,n1> = 1, <n2,n2> = -1,
    defined at every regular point (no case restriction)."""
    return _normal_pair(point_data(s, u, v))


def _require_general(d: PointData, case: PointCase) -> None:
    """Raise unless `case` (the classification of d) is general: b, l and the
    invariants built on them are undefined at flat and marginally trapped
    points."""
    if case is PointCase.MARGINALLY_TRAPPED:
        raise MarginallyTrappedError(
            f"<H,H> = 0 at (u, v) = ({d.u}, {d.v}); geometric frame undefined")
    if case is not PointCase.GENERAL:
        raise FlatPointError(
            f"flat point ({case.value}) at (u, v) = ({d.u}, {d.v}); b, l undefined")


def _normal_frame(d: PointData) -> NormalFrame:
    """The normal frame at a point already checked to be general."""
    n1, n2 = _normal_pair(d)
    if d.disc > 0.0:
        root = math.sqrt(d.disc)
        b = (d.kappa * d.fp * n1 - d.q * n2) / root
        l = (d.q * n1 - d.kappa * d.fp * n2) / root
        eps = 1
    else:
        root = math.sqrt(-d.disc)
        b = -1.0 * (d.kappa * d.fp * n1 - d.q * n2) / root
        l = (-d.q * n1 + d.kappa * d.fp * n2) / root
        eps = -1
    return NormalFrame(n1, n2, b, l, eps)


def normal_frame(s: MeridianSurface, u: float, v: float,
                 tol: float = CLASSIFY_TOL) -> NormalFrame:
    """Full normal frame including the geometric pair {b, l} (b collinear
    with H). Defined only at general points; flat points raise
    FlatPointError and marginally trapped points raise
    MarginallyTrappedError."""
    d = point_data(s, u, v)
    _require_general(d, d.classify(tol))
    return _normal_frame(d)
