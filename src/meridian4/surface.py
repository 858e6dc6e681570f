"""Meridian surface of parabolic type: embedding, the frame at a point
(tangents, normals and the geometric pair), and point classification.

The surface is z(u,v) = f phi cos v e1 + f phi sin v e2
+ (f phi^2/2 + g) xi1 + f xi2 over a profile (f, g) and directrix phi.
"""

import enum
import math

from .errors import DomainError, FlatPointError, MarginallyTrappedError
from .minkowski import Vec4, from_lightlike
from .profile import (Directrix, DirectrixPoint, ProfileCurve, ProfilePoint,
                      directrix_point, profile_point)
from .records import Frozen, Record, set_fields

__all__ = [
    "MeridianSurface",
    "PointCase",
    "PointData",
    "PointFrames",
    "frames",
    "embed",
    "classify_row",
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


# module names for the per-point path: a read through the enum class costs about 6x more
GENERAL = PointCase.GENERAL
MARGINALLY_TRAPPED = PointCase.MARGINALLY_TRAPPED


class MeridianSurface(Frozen):
    """The surface over a profile and a directrix. Each curve keeps its own
    point records (profile_point, directrix_point), so a coordinate is
    evaluated once however many points and surfaces share it."""

    __slots__ = ("profile", "directrix")

    def __init__(self, profile: ProfileCurve, directrix: Directrix):
        set_fields(self, profile, directrix)


class PointData(Record):
    """The point (p.u, c.v): its profile record p and directrix record c,
    referenced, not copied; disc = kappa^2 f'^2 - q^2, whose sign is that of
    <H,H>; and its case under the tolerance it was combined with."""

    __slots__ = ("p", "c", "disc", "case")

    def __init__(self, p: ProfilePoint, c: DirectrixPoint, disc: float, case):
        self.p = p
        self.c = c
        self.disc = disc
        self.case = case


class PointFrames(Frozen):
    """The frame at one point, as frames(d) builds it: the orthonormal
    tangents X, Y, the principal tangents x, y and the normal pair n1, n2;
    at a general point also the geometric pair b, l and epsilon, the sign of
    <H,H> (None elsewhere), where b = sign(f') H/||H||, <b,b> = epsilon,
    <l,l> = -epsilon and det(x, y, b, l) = -1 in e-coordinates. d is the
    point's record."""

    __slots__ = ("d", "X", "Y", "x", "y", "n1", "n2", "b", "l", "epsilon")

    def __init__(self, d: PointData, X: Vec4, Y: Vec4, x: Vec4, y: Vec4, n1: Vec4,
                 n2: Vec4, b: Vec4 | None = None, l: Vec4 | None = None,
                 epsilon: int | None = None):
        set_fields(self, d, X, Y, x, y, n1, n2, b, l, epsilon)


def classify_row(p: ProfilePoint, cs, tol: float = CLASSIFY_TOL):
    """The one case rule: yield (c, disc, case) for each directrix record c
    of cs in turn, disc = kappa^2 f'^2 - q^2 and the case of (p.u, c.v) under
    tol. DomainError naming (u, v) where disc, or the bound that decides a
    non-flat case, is not finite: a caller working point by point meets it
    at its first failing point."""
    fp, absq = p.fp, abs(p.q)
    fp2, q2 = fp * fp, p.q * p.q   # products: libm pow may misround
    developable = abs(p.kappa_m) <= tol
    for c in cs:
        kappa = c.kappa
        try:
            disc = (kappa * kappa) * fp2 - q2
            if abs(kappa) <= tol:
                case = PointCase.HYPERPLANAR_FLAT
            elif developable:
                case = PointCase.DEVELOPABLE_RULED_FLAT
            else:
                bound = tol * max(abs(kappa * fp), absq, tol)**2
                if abs(disc) > bound:
                    case = GENERAL
                elif bound < math.inf:
                    case = MARGINALLY_TRAPPED
                else:
                    case = None
        except OverflowError:
            case = None
        if case is None or not math.isfinite(disc):
            raise DomainError(
                f"the point record at (u, v) = ({p.u}, {c.v}) is not finite", t=p.u)
        yield c, disc, case


def combine(p: ProfilePoint, c: DirectrixPoint,
            tol: float = CLASSIFY_TOL) -> PointData:
    """The record at (p.u, c.v), its case decided by classify_row under tol."""
    [(_, disc, case)] = classify_row(p, (c,), tol)
    return PointData(p, c, disc, case)


def point_data(s: MeridianSurface, u: float, v: float) -> PointData:
    """The record at (u, v), its case decided under CLASSIFY_TOL; the
    frames, the invariants and the oracle all derive from it."""
    return combine(profile_point(s.profile, u), directrix_point(s.directrix, v))


def embed(p: ProfilePoint, c: DirectrixPoint, g: float) -> Vec4:
    """The point z(u, v) in e-coordinates of the profile record p at u and
    the directrix record c at v; g is g(u), which a grid walked row by row
    computes once per row."""
    f, phi, v = p.f, c.phi, c.v
    return from_lightlike(f * phi * math.cos(v), f * phi * math.sin(v),
                          f * phi**2 / 2.0 + g, f)


def frames(d: PointData) -> PointFrames:
    """The frame at the point of d, with cos v, sin v and sqrt(D) computed
    once; b, l and epsilon only where d's case is general. Each vector is
    built once, written out in the order of operations of Vec4's operators.

    Generic over the scalar type of d's fields: a type other than float (the
    oracle's invariants.Dual) brings its own cos, sin and sqrt, as methods
    its class names, and the arithmetic and order of a float."""
    p, c = d.p, d.c
    lib = math if isinstance(c.v, (float, int)) else type(c.v)
    cv, sv = lib.cos(c.v), lib.sin(c.v)
    rD = lib.sqrt(c.D)
    X = from_lightlike(
        p.fp * c.phi * cv,
        p.fp * c.phi * sv,
        p.fp * c.phi**2 / 2.0 + p.gp,
        p.fp,
    )
    # Y = z_v / (f sqrt(D)), z_v = from_lightlike(f (phi' cos v - phi sin v),
    # f (phi' sin v + phi cos v), f phi phi', 0.0), whose p + 0.0 turns -0.0 to 0.0
    s = 1.0 / (p.f * rD)
    zp = p.f * c.phi * c.phid
    Y = Vec4(p.f * (c.phid * cv - c.phi * sv) * s, p.f * (c.phid * sv + c.phi * cv) * s,
             zp / _SQRT2 * s, (zp + 0.0) / _SQRT2 * s)
    n1 = from_lightlike(
        (c.phid * sv + c.phi * cv) / rD,
        (-c.phid * cv + c.phi * sv) / rD,
        c.phi**2 / rD,
        0.0,
    )
    # Orientation fixed so that z_uu = -kappa_m n2 and
    # H = kappa/(2f) n1 - (f f''+f'^2)/(2 f f') n2 hold with <n2,n2> = -1.
    n2 = from_lightlike(
        -p.fp * c.phi * cv,
        -p.fp * c.phi * sv,
        -(p.fp * c.phi**2 - 2.0 * p.gp) / 2.0,
        -p.fp,
    )
    r = 1.0 / _SQRT2
    x = Vec4((X.c1 + Y.c1) * r, (X.c2 + Y.c2) * r, (X.c3 + Y.c3) * r, (X.c4 + Y.c4) * r)
    y = Vec4((X.c1 * -1.0 + Y.c1) * r, (X.c2 * -1.0 + Y.c2) * r,
             (X.c3 * -1.0 + Y.c3) * r, (X.c4 * -1.0 + Y.c4) * r)
    if d.case is not GENERAL:
        return PointFrames(d, X, Y, x, y, n1, n2)
    kfp, q, disc = c.kappa * p.fp, p.q, d.disc
    eps = 1 if disc > 0.0 else -1
    root = lib.sqrt(abs(disc))
    rb, rl = 1.0 / root, eps / root
    b = Vec4((n1.c1 * kfp - n2.c1 * q) * rb, (n1.c2 * kfp - n2.c2 * q) * rb,
             (n1.c3 * kfp - n2.c3 * q) * rb, (n1.c4 * kfp - n2.c4 * q) * rb)
    l = Vec4((n2.c1 * kfp - n1.c1 * q) * rl, (n2.c2 * kfp - n1.c2 * q) * rl,
             (n2.c3 * kfp - n1.c3 * q) * rl, (n2.c4 * kfp - n1.c4 * q) * rl)
    return PointFrames(d, X, Y, x, y, n1, n2, b, l, eps)


def _require_general(d: PointData) -> None:
    """Raise unless d's case is general: b, l and the invariants built on
    them are undefined at flat and marginally trapped points."""
    case, u, v = d.case, d.p.u, d.c.v
    if case is MARGINALLY_TRAPPED:
        raise MarginallyTrappedError(
            f"<H,H> = 0 at (u, v) = ({u}, {v}); geometric frame undefined")
    if case is not GENERAL:
        raise FlatPointError(
            f"flat point ({case.value}) at (u, v) = ({u}, {v}); b, l undefined")
