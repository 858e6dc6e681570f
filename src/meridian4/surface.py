"""Meridian surface of parabolic type: embedding, tangent/normal/geometric
frames, and point classification.

The surface is z(u,v) = f phi cos v e1 + f phi sin v e2
+ (f phi^2/2 + g) xi1 + f xi2 over a profile (f, g) and directrix phi.
"""

import enum
import math
from typing import Optional

from .errors import DomainError, FlatPointError, MarginallyTrappedError
from .minkowski import Vec4, from_lightlike
from .profile import (Directrix, DirectrixPoint, ProfileCurve, ProfilePoint,
                      directrix_point, g_from_f, profile_point)
from .records import Frozen, Record, set_fields

__all__ = [
    "MeridianSurface",
    "TangentFrame",
    "NormalFrame",
    "PointCase",
    "PointData",
    "embed",
    "tangent_frame",
    "normal_frame",
    "normal_pair",
    "classify_point",
    "combine",
    "point_data",
]

_SQRT2 = math.sqrt(2.0)
CLASSIFY_TOL = 1e-9


class PointCase(enum.Enum):
    HYPERPLANAR_FLAT = "hyperplanar-flat"          # kappa = 0
    DEVELOPABLE_RULED_FLAT = "developable-ruled"   # kappa_m = 0
    MARGINALLY_TRAPPED = "marginally-trapped"      # <H,H> = 0, kappa*kappa_m != 0
    GENERAL = "general"


class MeridianSurface(Frozen):
    """The surface over a profile and a directrix. Each curve keeps its own
    point records (profile_point, directrix_point), so a coordinate is
    evaluated once however many points and surfaces share it."""

    __slots__ = ("profile", "directrix")

    def __init__(self, profile: ProfileCurve, directrix: Directrix):
        set_fields(self, profile, directrix)


class TangentFrame(Frozen):
    """X, Y and the principal tangents xdir = (X+Y)/sqrt2, ydir = (-X+Y)/sqrt2."""

    __slots__ = ("X", "Y", "xdir", "ydir")

    def __init__(self, X: Vec4, Y: Vec4, xdir: Vec4, ydir: Vec4):
        set_fields(self, X, Y, xdir, ydir)


class NormalFrame(Frozen):
    """n1, n2, the geometric pair b, l and epsilon, the sign of <H,H>, at a
    general point: b = sign(f') H/||H||, <b,b> = epsilon, <l,l> = -epsilon
    and det(x, y, b, l) = -1 in e-coordinates."""

    __slots__ = ("n1", "n2", "b", "l", "epsilon")

    def __init__(self, n1: Vec4, n2: Vec4, b: Vec4, l: Vec4, epsilon: int):
        set_fields(self, n1, n2, b, l, epsilon)


class PointData(Record):
    """All scalars the frames and invariants need at one (u, v), and the
    point's case under the tolerance it was combined with: the fields of
    the profile and directrix records, and disc = kappa^2 f'^2 - q^2, whose
    sign is that of <H,H>."""

    __slots__ = ("u", "v", "f", "fp", "fpp", "fppp", "gp", "phi", "phid", "phidd",
                 "kappa", "kappa_dot", "kappa_m", "D", "q", "gamma1", "K", "disc",
                 "case")

    def __init__(self, u, v, f, fp, fpp, fppp, gp, phi, phid, phidd, kappa,
                 kappa_dot, kappa_m, D, q, gamma1, K, disc, case):
        self.u = u
        self.v = v
        self.f = f
        self.fp = fp
        self.fpp = fpp
        self.fppp = fppp
        self.gp = gp
        self.phi = phi
        self.phid = phid
        self.phidd = phidd
        self.kappa = kappa
        self.kappa_dot = kappa_dot
        self.kappa_m = kappa_m
        self.D = D
        self.q = q
        self.gamma1 = gamma1
        self.K = K
        self.disc = disc
        self.case = case


def combine(p: ProfilePoint, c: DirectrixPoint,
            tol: float = CLASSIFY_TOL) -> PointData:
    """The record at (p.u, c.v), its case decided under tol; DomainError
    where disc or the bound that decides the case is not finite."""
    try:
        disc = c.kappa**2 * p.fp**2 - p.q**2
        if abs(c.kappa) <= tol:
            case = PointCase.HYPERPLANAR_FLAT
        elif abs(p.kappa_m) <= tol:
            case = PointCase.DEVELOPABLE_RULED_FLAT
        else:
            bound = tol * max(abs(c.kappa * p.fp), abs(p.q), tol)**2
            if abs(disc) > bound:
                case = PointCase.GENERAL
            elif bound < math.inf:
                case = PointCase.MARGINALLY_TRAPPED
            else:
                case = None
    except OverflowError:
        case = None
    if case is None or not math.isfinite(disc):
        raise DomainError(
            f"the point record at (u, v) = ({p.u}, {c.v}) is not finite", t=p.u)
    return PointData(p.u, c.v, p.f, p.fp, p.fpp, p.fppp, p.gp,
                     c.phi, c.phid, c.phidd, c.kappa, c.kappa_dot, p.kappa_m,
                     c.D, p.q, p.gamma1, p.K, disc, case)


def point_data(s: MeridianSurface, u: float, v: float,
               tol: float = CLASSIFY_TOL) -> PointData:
    """The record at (u, v), its case decided under tol; the frames, the
    invariants and the oracle all derive from it."""
    return combine(profile_point(s.profile, u), directrix_point(s.directrix, v),
                   tol)


def embed(s: MeridianSurface, u: float, v: float,
          d: Optional[PointData] = None, g: Optional[float] = None) -> Vec4:
    """The point z(u, v) in e-coordinates. d and g are the point's record
    and g(u) when the caller already has them: a grid walked row by row
    computes g once per row."""
    if d is None:
        d = point_data(s, u, v)
    if g is None:
        g = g_from_f(s.profile, u)
    return from_lightlike(
        d.f * d.phi * math.cos(v),
        d.f * d.phi * math.sin(v),
        d.f * d.phi**2 / 2.0 + g,
        d.f,
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


def classify_point(s: MeridianSurface, u: float, v: float,
                   tol: float = CLASSIFY_TOL) -> PointCase:
    return point_data(s, u, v, tol).case


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


def _require_general(d: PointData) -> None:
    """Raise unless d's case is general: b, l and the invariants built on
    them are undefined at flat and marginally trapped points."""
    case = d.case
    if case is PointCase.MARGINALLY_TRAPPED:
        raise MarginallyTrappedError(
            f"<H,H> = 0 at (u, v) = ({d.u}, {d.v}); geometric frame undefined")
    if case is not PointCase.GENERAL:
        raise FlatPointError(
            f"flat point ({case.value}) at (u, v) = ({d.u}, {d.v}); b, l undefined")


def _normal_frame(d: PointData) -> NormalFrame:
    """The normal frame at a point already checked to be general."""
    n1, n2 = _normal_pair(d)
    eps = 1 if d.disc > 0.0 else -1
    root = math.sqrt(abs(d.disc))
    b = (d.kappa * d.fp * n1 - d.q * n2) / root
    l = (d.kappa * d.fp * n2 - d.q * n1) * (eps / root)
    return NormalFrame(n1, n2, b, l, eps)


def normal_frame(s: MeridianSurface, u: float, v: float,
                 tol: float = CLASSIFY_TOL) -> NormalFrame:
    """Full normal frame including the geometric pair {b, l}: b =
    sign(f') H/||H||, oriented so that det(x, y, b, l) = -1. Defined only at
    general points; flat points raise FlatPointError and marginally trapped
    points raise MarginallyTrappedError."""
    d = point_data(s, u, v, tol)
    _require_general(d)
    return _normal_frame(d)
