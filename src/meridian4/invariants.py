"""Closed-form geometric invariants of a meridian surface of parabolic type,
and an exact oracle recomputing them from the frame definitions.

The oracle runs surface.frames once per point over dual numbers in (u, v)
(forward-mode differentiation), so every frame field comes with its exact
partial derivatives. The frame's values are those of the point record the
closed forms read: X and n2 read f' and g', Y and n1 read phi, phi' and D,
b and l read the same kappa, q and disc. It checks the rest: H and every
coefficient come from the derivatives of those fields, seeded from the
3-jets of f and phi in that record; d kappa/dv comes from dual arithmetic,
not from kappa_dot. The third derivatives f''' and phi''' are shared with
the closed forms; verify checks them against differences of f'' and phi''.
"""

import math
from collections import namedtuple
from types import SimpleNamespace

from .errors import DomainError
from .minkowski import Vec4, minkowski_dot
from .profile import ProfilePoint, _finite
from .records import Record
from .surface import (CLASSIFY_TOL, GENERAL, PointData, PointFrames, _require_general,
                      classify_row, frames)

__all__ = [
    "InvariantRecord",
    "eight_invariants",
    "Dual",
    "dual_frames",
    "oracle_invariants",
]

_SQRT2 = math.sqrt(2.0)


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


def eight_invariants(p: ProfilePoint, cs, tol: float = CLASSIFY_TOL) -> list:
    """The row kernel: for each directrix record c of cs, the closed-form
    record at (p.u, c.v) where surface.classify_row finds the point general
    under tol, else its PointCase; the u-only factors are read once per row.
    H_norm is |nu| (H = nu b with <b,b> = eps). DomainError, the case rule's
    or where a value of a record is not finite, at the row's first failure."""
    out, terms = [], None
    fpp, q, gamma1, K = p.fpp, p.q, p.gamma1, p.K
    for c, disc, case in classify_row(p, cs, tol):
        if case is not GENERAL:
            out.append(case)
            continue
        if terms is None:
            terms = p._terms or _u_terms(p)
            two_f, two_ffp, ffp, fp2, f2fpp2, fp4, q_du, h2, nkm2, f2 = terms
        kappa = c.kappa
        kappa2 = kappa * kappa
        eps = 1 if disc > 0 else -1
        absdisc = abs(disc)     # eps * disc
        root = math.sqrt(absdisc)

        nu = root / two_ffp
        lam = eps * (kappa2 * fp2 + f2fpp2 - fp4) / (two_ffp * root)
        mu = kappa * fpp / root
        cross = c.kappa_dot * q / (ffp * math.sqrt(c.D))
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
        out.append(_tuple_new(InvariantRecord, (
            gamma1, -gamma1,                     # gamma1, gamma2
            nu, nu, lam, mu, beta1, beta2,
            K, k,                                # K, k
            0.0,                                 # varkappa
            h1, h2, abs(nu), eps)))              # H_n1, H_n2, H_norm, epsilon
    return out


# --- the exact oracle: the frame over dual numbers ----------------------------

class Dual(Record):
    """A first-order dual number in u and v, a + du e_u + dv e_v with
    e_u^2 = e_u e_v = e_v^2 = 0: a value and its exact partial derivatives
    (Griewank & Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 3).
    It has the operations that surface.frames and dual_frames use and no
    others: x + y, x - y, x * y, x / y and c / x for duals x and y or a
    float or int constant y, c * x, -x, abs(x), x ** n for a constant n,
    x > c, and the methods cos, sin and sqrt, which frames calls. Each value
    is computed by the float operation that the same expression performs on
    floats, so a formula run over duals has the values of the float formula
    bit for bit. x - x is the float 0.0, or NaN where a part of x is not
    finite, so Vec4's finiteness test covers the partials."""

    __slots__ = ("a", "du", "dv")

    def __init__(self, a: float, du: float, dv: float):
        self.a = a
        self.du = du
        self.dv = dv

    def __add__(self, o):
        if type(o) is Dual:
            return Dual(self.a + o.a, self.du + o.du, self.dv + o.dv)
        return Dual(self.a + o, self.du, self.dv)

    def __sub__(self, o):
        if o is self:   # Vec4's finiteness test
            return (self.a - self.a) + (self.du - self.du) + (self.dv - self.dv)
        if type(o) is Dual:
            return Dual(self.a - o.a, self.du - o.du, self.dv - o.dv)
        return Dual(self.a - o, self.du, self.dv)

    def __neg__(self):
        return Dual(-self.a, -self.du, -self.dv)

    def __mul__(self, o):
        if type(o) is Dual:
            a, b = self.a, o.a
            return Dual(a * b, self.du * b + a * o.du, self.dv * b + a * o.dv)
        return Dual(self.a * o, self.du * o, self.dv * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) is Dual:
            b = o.a
            q = self.a / b
            return Dual(q, (self.du - q * o.du) / b, (self.dv - q * o.dv) / b)
        return Dual(self.a / o, self.du / o, self.dv / o)

    def __rtruediv__(self, o):
        a = self.a
        q = o / a
        return Dual(q, -q * self.du / a, -q * self.dv / a)

    def __pow__(self, n):
        """self**n for a constant n."""
        a = self.a
        w = n * a ** (n - 1)
        return Dual(a**n, w * self.du, w * self.dv)

    def __abs__(self):
        return -self if self.a < 0.0 else Dual(abs(self.a), self.du, self.dv)

    def __gt__(self, c):
        return self.a > c

    def cos(self):
        w = -math.sin(self.a)
        return Dual(math.cos(self.a), w * self.du, w * self.dv)

    def sin(self):
        w = math.cos(self.a)
        return Dual(math.sin(self.a), w * self.du, w * self.dv)

    def sqrt(self):
        r = math.sqrt(self.a)
        w = 0.5 / r
        return Dual(r, w * self.du, w * self.dv)


def _at_value(value: float, x: Dual) -> Dual:
    """The dual with x's partials at value."""
    return Dual(value, x.du, x.dv)


def dual_frames(d: PointData) -> PointFrames:
    """The frame at the general point of d over duals in (u, v):
    surface.frames run over d's fields as Duals, whose partials are each
    field's exact derivatives along u and v. The duals are seeded from the
    3-jets that d's records hold: f, f', f'' and f''' from its profile
    record, phi, phi', phi'' and phi''' from its directrix record. g', q, D,
    kappa and disc take their partials from their record formulas run over
    those duals, and every field takes its value from d, as the closed
    forms read it: the frame's values are frames(d)'s bit for bit, and a
    field no closed form reads (g', phi, phi') still reaches the frame.
    FlatPointError or MarginallyTrappedError where d is not general."""
    if d.case is not GENERAL:
        _require_general(d)
    p, c = d.p, d.c
    f, fp, fpp = Dual(p.f, p.fp, 0.0), Dual(p.fp, p.fpp, 0.0), Dual(p.fpp, p.fppp, 0.0)
    phi, phid = Dual(c.phi, 0.0, c.phid), Dual(c.phid, 0.0, c.phidd)
    phidd = Dual(c.phidd, 0.0, c.phiddd)
    q = _at_value(p.q, f * fpp + fp**2)
    D = _at_value(c.D, phid**2 + phi**2)
    kappa = _at_value(c.kappa, (phi * phidd - 2.0 * phid**2 - phi**2) / D**1.5)
    disc = _at_value(d.disc, kappa**2 * fp**2 - q**2)
    return frames(PointData(
        SimpleNamespace(f=f, fp=fp, gp=_at_value(p.gp, -0.5 / fp), q=q),
        SimpleNamespace(v=Dual(c.v, 0.0, 1.0), phi=phi, phid=phid, D=D, kappa=kappa),
        disc, GENERAL))


def _value(w: Vec4) -> Vec4:
    """The values of a vector of duals."""
    return Vec4(w.c1.a, w.c2.a, w.c3.a, w.c4.a)


def _derivative(w: Vec4, a: float, c: float) -> Vec4:
    """a d/du + c d/dv of a vector of duals."""
    c1, c2, c3, c4 = w.c1, w.c2, w.c3, w.c4
    return Vec4(c1.du * a + c1.dv * c, c2.du * a + c2.dv * c,
                c3.du * a + c3.dv * c, c4.du * a + c4.dv * c)


def _normal_part(Dx_x: Vec4, Dy_y: Vec4, X: Vec4, Y: Vec4) -> Vec4:
    """H = W - X <W,X> - Y <W,Y>, W = (D_x x + D_y y) * 0.5: W's part off the
    tangent plane of the orthonormal pair (X, Y), written out per component."""
    w1, w2 = (Dx_x.c1 + Dy_y.c1) * 0.5, (Dx_x.c2 + Dy_y.c2) * 0.5
    w3, w4 = (Dx_x.c3 + Dy_y.c3) * 0.5, (Dx_x.c4 + Dy_y.c4) * 0.5
    wx = w1 * X.c1 + w2 * X.c2 + w3 * X.c3 - w4 * X.c4
    wy = w1 * Y.c1 + w2 * Y.c2 + w3 * Y.c3 - w4 * Y.c4
    return Vec4(w1 - X.c1 * wx - Y.c1 * wy, w2 - X.c2 * wx - Y.c2 * wy,
                w3 - X.c3 * wx - Y.c3 * wy, w4 - X.c4 * wx - Y.c4 * wy)


def oracle_invariants(fr: PointFrames) -> InvariantRecord:
    """Recompute the eight invariants at the point of fr, a frame over duals
    from dual_frames, as the coefficients of the geometric frame's
    derivative formulas (Ganchev & Milousheva, Mediterr. J. Math., 2012),
    e.g. D_x y = -gamma1 x + lam b + mu l, from the exact derivatives of the
    frame fields x, y, b, l: a coefficient along b is eps <., b> and one
    along l is -eps <., l>. No closed-form invariant, kappa_dot or u-only
    factor of the closed forms is read."""
    d = fr.d
    # x = (X + Y)/sqrt2 with X = z_u, Y = z_v/(f sqrt(D)):
    # coordinate-direction coefficients of x and y at the point.
    a_x, c_x = 1.0 / _SQRT2, 1.0 / (_SQRT2 * d.p.f.a * math.sqrt(d.c.D.a))
    a_y, c_y = -a_x, c_x
    b, l, x, y = _value(fr.b), _value(fr.l), _value(fr.x), _value(fr.y)

    Dx_x = _derivative(fr.x, a_x, c_x)
    Dy_y = _derivative(fr.y, a_y, c_y)
    Dx_y = _derivative(fr.y, a_x, c_x)
    Dx_b = _derivative(fr.b, a_x, c_x)
    Dy_b = _derivative(fr.b, a_y, c_y)

    # coefficients along b and l, where <b,b> = eps and <l,l> = -eps
    eps = fr.epsilon
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
    Hvec = _normal_part(Dx_x, Dy_y, _value(fr.X), _value(fr.Y))
    hh = minkowski_dot(Hvec, Hvec)
    return InvariantRecord(
        gamma1=gamma1, gamma2=gamma2, nu1=nu1, nu2=nu2,
        lam=lam, mu=mu, beta1=beta1, beta2=beta2,
        K=K, k=k, varkappa=varkappa,
        H_n1=minkowski_dot(Hvec, _value(fr.n1)),
        H_n2=-minkowski_dot(Hvec, _value(fr.n2)),   # <n2,n2> = -1
        H_norm=math.sqrt(abs(hh)),
        epsilon=eps,
    )
