"""Closed-form geometric invariants of a meridian surface of parabolic type,
and a finite-difference oracle recomputing them from the frame definitions.

The oracle differences surface.frames, which reads the point record the
closed forms read: X and n2 read f' and g', Y and n1 read phi, phi' and D,
b and l read the same kappa, q and disc. It checks the rest: H and every
coefficient come from central differences of those fields. Only f''',
d kappa/dv and the u-only factors are read by the closed forms alone.
"""

import math
from collections import namedtuple

from .errors import DomainError
from .minkowski import Vec4, minkowski_dot
from .profile import ProfilePoint, _finite
from .records import Record
from .surface import (GENERAL, MeridianSurface, PointData, PointFrames,
                      _require_general, frames, point_data)

__all__ = [
    "InvariantRecord",
    "eight_invariants",
    "StencilPass",
    "oracle_invariants",
    "oracle_frame_derivatives",
]

_SQRT2 = math.sqrt(2.0)
DEFAULT_ORACLE_STEP = 1e-4


InvariantRecord = namedtuple(
    "InvariantRecord", ("gamma1", "gamma2", "nu1", "nu2", "lam", "mu", "beta1", "beta2",
                        "K", "k", "varkappa", "H_n1", "H_n2", "H_norm", "epsilon"))
InvariantRecord.__doc__ = """The frame invariants (gamma1, gamma2, nu1, nu2,
lam, mu, beta1, beta2) plus the derived quantities K, k, varkappa, the mean
curvature data and the sign epsilon of <H,H>. ('lam' is the surface invariant
usually written lambda; renamed to dodge the keyword.) A named tuple: it
unpacks, and it equals the tuple of its fields."""
_tuple_new = tuple.__new__


def _u_terms(p: ProfilePoint) -> tuple:
    """The factors of the closed forms that depend on u alone, computed at
    the first general point of a profile record and kept on it; DomainError
    where one is not finite or f^2, the divisor of k, underflows to 0 (with
    |f'| >= 1e-9, f^2 != 0 keeps the other u-only divisors nonzero)."""
    f, fp, fpp, q = p.f, p.fp, p.fpp, p.q
    try:
        # squares as products: x**2 goes through libm pow, which is not
        # correctly rounded everywhere
        two_f, f2, fp2 = 2.0 * f, f * f, fp * fp
        two_ffp = two_f * fp
        terms = (two_f, two_ffp, f * fp, fp2, f2 * (fpp * fpp), fp**4,
                 ((f * p.fppp + 3.0 * fp * fpp) * fp - q * fpp) / fp2,   # d/du of q/f'
                 -q / two_ffp,                                          # H_n2
                 -(p.kappa_m**2), f2) if f2 else None
    except OverflowError:
        terms = None
    terms = _finite(terms, "a factor of the invariants at u", p.u)
    object.__setattr__(p, "_terms", terms)
    return terms


def eight_invariants(d: PointData) -> InvariantRecord:
    """Closed-form record at the general point of d; H_norm is |nu| (H = nu b
    with <b,b> = eps). DomainError where a value of the record is not
    finite."""
    if d.case is not GENERAL:
        _require_general(d)
    p, c, disc = d.p, d.c, d.disc
    two_f, two_ffp, ffp, fp2, f2fpp2, fp4, q_du, h2, nkm2, f2 = \
        p._terms or _u_terms(p)
    kappa = c.kappa
    kappa2 = kappa * kappa
    eps = 1 if disc > 0 else -1
    absdisc = abs(disc)     # eps * disc
    root = math.sqrt(absdisc)

    nu = root / two_ffp
    lam = eps * (kappa2 * fp2 + f2fpp2 - fp4) / (two_ffp * root)
    mu = kappa * p.fpp / root
    cross = c.kappa_dot * p.q / (ffp * math.sqrt(c.D))
    w = fp2 / (_SQRT2 * absdisc)
    beta1 = -w * (kappa * q_du - cross)
    beta2 = w * (kappa * q_du + cross)
    k = nkm2 * kappa2 / f2
    h1 = kappa / two_f
    # x - x is 0.0 for a finite x and NaN for +-inf and NaN: one comparison
    if (nu - nu) + (lam - lam) + (mu - mu) + (beta1 - beta1) + (beta2 - beta2) \
            + (k - k) + (h1 - h1) != 0.0:
        raise DomainError(
            f"the invariants at (u, v) = ({p.u}, {c.v}) are not finite", t=p.u)
    # the fields in order, through tuple.__new__: the named tuple's own
    # __new__ is one more Python call per record
    return _tuple_new(InvariantRecord, (
        p.gamma1, -p.gamma1,                 # gamma1, gamma2
        nu, nu, lam, mu, beta1, beta2,
        p.K, k,                              # K, k
        0.0,                                 # varkappa
        h1, h2, abs(nu), eps))               # H_n1, H_n2, H_norm, epsilon


# --- finite-difference oracle -------------------------------------------------

def _check_stencil(s: MeridianSurface, u: float, v: float, h: float):
    if not h > 0.0:
        raise DomainError(f"oracle step h = {h} is not positive")
    # a step that moves no stencil point, or whose 1/(2h) overflows
    if u + h == u or u - h == u or v + h == v or v - h == v \
            or not math.isfinite(1.0 / (2.0 * h)):
        raise DomainError(f"oracle step h = {h} is too small at ({u}, {v})")
    u0, u1 = s.profile.domain
    v0, v1 = s.directrix.domain
    if not (u0 <= u - 2 * h and u + 2 * h <= u1 and v0 <= v - 2 * h and v + 2 * h <= v1):
        raise DomainError(
            f"oracle stencil of radius 2h = {2 * h} leaves the domain at ({u}, {v})")


class StencilPass(Record):
    """One oracle stencil of step h at (u, v): the frames at the centre and
    at (u+h, v), (u-h, v), (u, v+h), (u, v-h), each built once, and each
    field's central differences, each computed on first use. Both oracles
    read the point and the step from it; centre is the centre's PointFrames
    when the caller has built it (a pass at h/2 reuses the one at h)."""

    __slots__ = ("centre", "points", "h", "_diffs")

    def __init__(self, s: MeridianSurface, u: float, v: float,
                 h: float = DEFAULT_ORACLE_STEP,
                 centre: PointFrames | None = None):
        _check_stencil(s, u, v, h)
        self.centre = frames(point_data(s, u, v)) if centre is None else centre
        self.points = tuple(frames(point_data(s, uu, vv))
                            for uu, vv in ((u + h, v), (u - h, v), (u, v + h), (u, v - h)))
        self.h = h
        self._diffs = {}

    def difference(self, name: str, axis: int) -> Vec4:
        """(F(+) - F(-)) / (2h) of the field `name` along u (axis 0) or v
        (axis 1), each component as Vec4's own (a - b) * (1 / (2h))."""
        key = (name, axis)
        out = self._diffs.get(key)
        if out is None:
            up = getattr(self.points[2 * axis], name)
            um = getattr(self.points[2 * axis + 1], name)
            w = 1.0 / (2.0 * self.h)
            out = self._diffs[key] = Vec4((up.c1 - um.c1) * w, (up.c2 - um.c2) * w,
                                          (up.c3 - um.c3) * w, (up.c4 - um.c4) * w)
        return out


def _directional(stencil: StencilPass, name: str, a: float, c: float) -> Vec4:
    """Ambient derivative of the field `name` along a*d/du + c*d/dv, by
    central differences: du*a + dv*c in one Vec4, each component summed in
    the order of (du * a) + (dv * c)."""
    du, dv = stencil.difference(name, 0), stencil.difference(name, 1)
    return Vec4(du.c1 * a + dv.c1 * c, du.c2 * a + dv.c2 * c,
                du.c3 * a + dv.c3 * c, du.c4 * a + dv.c4 * c)


def _normal_part(Dx_x: Vec4, Dy_y: Vec4, centre: PointFrames) -> Vec4:
    """H = W - X <W,X> - Y <W,Y>, W = (D_x x + D_y y) * 0.5: W's part off the
    tangent plane of the orthonormal pair (X, Y), written out per component."""
    X, Y = centre.X, centre.Y
    w1, w2 = (Dx_x.c1 + Dy_y.c1) * 0.5, (Dx_x.c2 + Dy_y.c2) * 0.5
    w3, w4 = (Dx_x.c3 + Dy_y.c3) * 0.5, (Dx_x.c4 + Dy_y.c4) * 0.5
    wx = w1 * X.c1 + w2 * X.c2 + w3 * X.c3 - w4 * X.c4
    wy = w1 * Y.c1 + w2 * Y.c2 + w3 * Y.c3 - w4 * Y.c4
    return Vec4(w1 - X.c1 * wx - Y.c1 * wy, w2 - X.c2 * wx - Y.c2 * wy,
                w3 - X.c3 * wx - Y.c3 * wy, w4 - X.c4 * wx - Y.c4 * wy)


def oracle_invariants(stencil: StencilPass) -> InvariantRecord:
    """Recompute the eight invariants at the stencil's centre as the
    coefficients of the geometric frame's derivative formulas (Ganchev &
    Milousheva, Mediterr. J. Math., 2012), e.g. D_x y = -gamma1 x + lam b +
    mu l, differencing the frame fields x, y, b, l: a coefficient along b is
    eps <., b> and one along l is -eps <., l>. O(h^2) accurate; no
    closed-form invariant is read."""
    centre = stencil.centre
    for rec in (centre, *stencil.points):
        if rec.epsilon is None:
            _require_general(rec.d)
    d = centre.d
    # x = (X + Y)/sqrt2 with X = z_u, Y = z_v/(f sqrt(D)):
    # coordinate-direction coefficients of x and y at the centre point.
    a_x, c_x = 1.0 / _SQRT2, 1.0 / (_SQRT2 * d.p.f * math.sqrt(d.c.D))
    a_y, c_y = -a_x, c_x
    b, l, x, y = centre.b, centre.l, centre.x, centre.y

    Dx_x = _directional(stencil, "x", a_x, c_x)
    Dy_y = _directional(stencil, "y", a_y, c_y)
    Dx_y = _directional(stencil, "y", a_x, c_x)
    Dx_b = _directional(stencil, "b", a_x, c_x)
    Dy_b = _directional(stencil, "b", a_y, c_y)

    # coefficients along b and l, where <b,b> = eps and <l,l> = -eps
    eps = centre.epsilon
    nu1 = eps * minkowski_dot(Dx_x, b)
    nu2 = eps * minkowski_dot(Dy_y, b)
    lam = eps * minkowski_dot(Dx_y, b)
    mu = -eps * minkowski_dot(Dx_y, l)
    gamma1 = minkowski_dot(Dx_x, y)
    gamma2 = minkowski_dot(Dy_y, x)
    beta1 = -eps * minkowski_dot(Dx_b, l)
    beta2 = -eps * minkowski_dot(Dy_b, l)

    # derived scalars via their defining relations (not the closed forms)
    k = -4.0 * nu1 * nu2 * mu**2
    varkappa = (nu1 - nu2) * mu
    K = eps * (nu1 * nu2 - lam**2 + mu**2)
    Hvec = _normal_part(Dx_x, Dy_y, centre)
    hh = minkowski_dot(Hvec, Hvec)
    return InvariantRecord(
        gamma1=gamma1, gamma2=gamma2, nu1=nu1, nu2=nu2,
        lam=lam, mu=mu, beta1=beta1, beta2=beta2,
        K=K, k=k, varkappa=varkappa,
        H_n1=minkowski_dot(Hvec, centre.n1),
        H_n2=-minkowski_dot(Hvec, centre.n2),   # <n2,n2> = -1
        H_norm=math.sqrt(abs(hh)),
        epsilon=eps,
    )


def oracle_frame_derivatives(stencil: StencilPass) -> dict:
    """Ambient derivatives of the frame fields X, Y, n1, n2 along X and Y
    at the stencil's centre, as Vec4s, keyed 'XX', 'XY', 'YX', 'YY', 'Xn1',
    'Yn1', 'Xn2', 'Yn2'."""
    d = stencil.centre.d
    cY = 1.0 / (d.p.f * math.sqrt(d.c.D))   # Y = cY * z_v
    out = {}
    for name in ("X", "Y", "n1", "n2"):
        out["X" + name] = stencil.difference(name, 0)
        out["Y" + name] = stencil.difference(name, 1) * cY
    return out
