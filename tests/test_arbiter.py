"""An arbiter for the point records in mpmath: every field of a profile
record and of a directrix record against the closed form of its curve,
written here by hand and differentiated by mpmath.diff at 30 digits.

The reference side reads nothing of meridian4: not the jets, which give
the records their derivatives, and not a record formula. So it checks f''',
phi''' and kappa_dot, which verify's oracle shares with the closed forms
(its jet3 rows check f''' and phi''' only to ORACLE_TOL), and it takes
kappa as the signed curvature of the plane curve phi(v) (cos v, sin v), not
from the record's formula in phi, phi' and phi''. The invariant record is
checked the same way, against the frame built by its definitions from f,
phi and their derivatives, reading nothing of meridian4.invariants, surface
or jets. Every u and v is a dyadic rational, so the float the record is
built at is the point itself."""

import pytest

from meridian4.expressions import compile_expression
from meridian4.families import (Chen, ConstantGauss, ConstantK, ParallelA,
                                constant_kappa_directrix)
from meridian4.invariants import eight_invariants
from meridian4.profile import Directrix, directrix_point, profile_point

mpmath = pytest.importorskip("mpmath")

DIGITS = 30
REL = 1e-10   # the bound is REL * max(1, |value|)

# name -> (spec, f0, u range, f in mpmath, u points)
PROFILES = {
    "gauss K=1": (ConstantGauss(1.0, 1.0, 0.5), None, (0.5, 1.5),
                  lambda u: mpmath.cos(u) + mpmath.sin(u) / 2, (0.625, 0.75, 1.0, 1.25)),
    "gauss K=-1": (ConstantGauss(-1.0, 1.0, 0.5), None, (0.0, 1.0),
                   lambda u: mpmath.cosh(u) + mpmath.sinh(u) / 2, (0.0, 0.25, 0.5, 0.75)),
    # f = sqrt(c u + d)
    "parallel-a": (ParallelA(1.0, 1.0), None, (0.0, 1.0),
                   lambda u: mpmath.sqrt(u + 1), (0.0, 0.25, 0.5, 0.75)),
    # f f' = f^2 / 2 + 1 / 2 from f(0) = 3/2: f^2 + 1 = (13/4) e^u
    # f' = 1/2 - f^2/2 from f(0) = 1/2: f = tanh(u/2 + atanh(1/2))
    "constant-k": (ConstantK(1.0, 1.0, 0.5, -1), 0.5, (0.0, 1.0),
                   lambda u: mpmath.tanh(u / 2 + mpmath.atanh(mpmath.mpf(1) / 2)),
                   (0.125, 0.375, 0.625, 0.875)),
    "chen": (Chen(1.0, 1.0, 1), 1.5, (0.0, 1.0),
             lambda u: mpmath.sqrt(mpmath.mpf(13) / 4 * mpmath.exp(u) - 1),
             (0.125, 0.375, 0.625, 0.875)),
}

# name -> (the directrix, phi in mpmath, v points)
DIRECTRICES = {
    "2+cos(v)": (Directrix(compile_expression("2+cos(v)", "v"), (0.0, 2.0)),
                 lambda v: 2 + mpmath.cos(v), (0.0, 0.5, 1.0, 2.0)),
    # kappa = b = 2 from phi(0) = 1, phi'(0) = 0: a circle of radius 1/2
    "circle b=2": (constant_kappa_directrix(2.0, (0.0, 0.3)),
                   lambda v: 4 / (3 * mpmath.cos(v)
                                  + mpmath.sqrt(1 - 9 * mpmath.sin(v) ** 2)),
                   (0.0625, 0.125, 0.1875, 0.25)),
}


def _agree(got: dict, want: dict):
    for name, value in want.items():
        assert abs(got[name] - value) <= REL * max(1.0, abs(value)), \
            (name, got[name], float(value))


def _profile_reference(f, u):
    """The profile record's fields at u by their definitions."""
    f0, f1, f2, f3 = (mpmath.diff(f, u, n) for n in range(4))
    return {"f": f0, "fp": f1, "fpp": f2, "fppp": f3,
            "gp": -1 / (2 * f1),                  # -2 f' g' = 1
            "kappa_m": f2 / f1,
            "q": f0 * f2 + f1 * f1,
            "gamma1": f1 / (mpmath.sqrt(2) * f0),
            "K": -f2 / f0}


def _plane_curvature(phi):
    """kappa(v): minus the signed curvature of the plane curve
    phi(v) (cos v, sin v)."""
    def x(t):
        return phi(t) * mpmath.cos(t)

    def y(t):
        return phi(t) * mpmath.sin(t)

    def kappa(v):
        x1, x2 = mpmath.diff(x, v), mpmath.diff(x, v, 2)
        y1, y2 = mpmath.diff(y, v), mpmath.diff(y, v, 2)
        return -(x1 * y2 - y1 * x2) / (x1 * x1 + y1 * y1) ** mpmath.mpf(1.5)
    return kappa


@pytest.mark.parametrize("name, u", [(name, u) for name, entry in PROFILES.items()
                                     for u in entry[-1]])
def test_the_profile_record_agrees_with_mpmath(name, u):
    spec, f0, u_range, f, _ = PROFILES[name]
    profile = spec.realize(f0, u_range)
    p = profile_point(profile, u)
    assert p.u == u
    with mpmath.workdps(DIGITS):
        want = _profile_reference(f, mpmath.mpf(u))
    _agree({field: getattr(p, field) for field in want}, want)


@pytest.mark.parametrize("name, v", [(name, v) for name, entry in DIRECTRICES.items()
                                     for v in entry[-1]])
def test_the_directrix_record_agrees_with_mpmath(name, v):
    directrix, phi, _ = DIRECTRICES[name]
    c = directrix_point(directrix, v)
    assert c.v == v
    with mpmath.workdps(DIGITS):
        x = mpmath.mpf(v)
        p0, p1, p2, p3 = (mpmath.diff(phi, x, n) for n in range(4))
        kappa = _plane_curvature(phi)
        want = {"phi": p0, "phid": p1, "phidd": p2, "phiddd": p3,
                "kappa": kappa(x), "kappa_dot": mpmath.diff(kappa, x),
                "D": p1 * p1 + p0 * p0}
    _agree({field: getattr(c, field) for field in want}, want)


def test_the_circle_has_the_curvature_it_was_built_for():
    # the reference kappa's sign: the directrix of constant_kappa_directrix(b)
    # has kappa = b
    _, phi, vs = DIRECTRICES["circle b=2"]
    with mpmath.workdps(DIGITS):
        for v in vs:
            assert abs(_plane_curvature(phi)(mpmath.mpf(v)) - 2) < 1e-25


# --- the invariant record -------------------------------------------------------
# The frame of the surface z(u, v) = f(u) L(v) + g(u) xi1 by its definitions,
# in e-coordinates with the metric diag(1, 1, 1, -1): L(v) = phi cos v e1 +
# phi sin v e2 + phi^2/2 xi1 + xi2 on the light cone, xi1 = (e3 + e4)/sqrt2
# and xi2 = (e4 - e3)/sqrt2, and g' = -1/(2 f') (so that <z_u, z_u> = 1).
# Every derivative of f, phi and of the frame fields is mpmath.diff's; the
# normals are cofactor vectors, oriented as the package orients its frame
# (det(L, L', xi1, n1), det(X, Y, n1, n2) and det(x, y, b, l) negative).

RECORD_FIELDS = ("gamma1", "gamma2", "nu1", "nu2", "lam", "mu", "beta1", "beta2",
                 "K", "k", "varkappa", "H_n1", "H_n2", "H_norm")


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] - a[3] * b[3]


def _sum(*terms):
    """The vector sum of (coefficient, vector) terms."""
    return [sum(k * w[i] for k, w in terms) for i in range(4)]


def _unit_normal(a, b, c):
    """The unit vector n orthogonal to a, b and c with det(a, b, c, n) < 0:
    the cofactors w of the rows a, b, c give det(a, b, c, w') = sum w_i w'_i,
    so n is w with its e4 component negated, scaled."""
    rows = mpmath.matrix([a, b, c])
    w = []
    for i in range(4):
        minor = mpmath.matrix([[rows[r, j] for j in range(4) if j != i] for r in range(3)])
        w.append((-1) ** (i + 3) * mpmath.det(minor))
    n = [w[0], w[1], w[2], -w[3]]
    ww = _dot(n, n)   # det(a, b, c, n) = <n, n>
    return [-mpmath.sign(ww) / mpmath.sqrt(abs(ww)) * x for x in n]


def _frame(f, phi, u, v):
    """The fields of the frame at (u, v) that the invariants read."""
    r2 = mpmath.sqrt(2)
    xi1 = [0, 0, 1 / r2, 1 / r2]
    L = (lambda t: phi(t) * mpmath.cos(t), lambda t: phi(t) * mpmath.sin(t),
         lambda t: (phi(t) ** 2 / 2 - 1) / r2, lambda t: (phi(t) ** 2 / 2 + 1) / r2)
    L0, L1, L2 = ([mpmath.diff(comp, v, n) for comp in L] for n in range(3))
    f0, f1, f2 = (mpmath.diff(f, u, n) for n in range(3))

    def gp(t):
        return -1 / (2 * mpmath.diff(f, t))
    z_u, z_v = _sum((f1, L0), (gp(u), xi1)), _sum((f0, L1))
    z_uu, z_vv = _sum((f2, L0), (mpmath.diff(gp, u), xi1)), _sum((f0, L2))
    G = _dot(z_v, z_v)
    X, Y = z_u, _sum((1 / mpmath.sqrt(G), z_v))

    def normal_part(w):
        return _sum((1, w), (-_dot(w, X), X), (-_dot(w, Y), Y))
    # H is the mean of the normal parts of D_X X = z_uu and D_Y Y = z_vv / G
    H = normal_part(_sum((mpmath.mpf(1) / 2, z_uu), (1 / (2 * G), z_vv)))
    hh = _dot(H, H)
    x, y = _sum((1 / r2, X), (1 / r2, Y)), _sum((-1 / r2, X), (1 / r2, Y))
    b = _sum((mpmath.sign(f1) / mpmath.sqrt(abs(hh)), H))
    n1 = _unit_normal(L0, L1, xi1)
    return {"x": x, "y": y, "b": b, "l": _unit_normal(x, y, b), "n1": n1,
            "n2": _unit_normal(X, Y, n1), "H": H, "eps": mpmath.sign(hh),
            "sqrtG": mpmath.sqrt(G)}


def _reference_record(f, phi, u, v):
    """The 14 numeric fields of the invariant record at (u, v) from the
    derivative formulas of the geometric frame (Ganchev & Milousheva,
    Mediterr. J. Math., 2012): D_x x = gamma1 y + nu1 b, D_x y = -gamma1 x +
    lam b + mu l, D_y y = gamma2 x + nu2 b, D_x b = ... + beta1 l and D_y b =
    ... + beta2 l, where a coefficient along b is eps <., b> and one along l
    is -eps <., l>; K from the metric (E = 1, F = 0: K = -(sqrt G)_uu /
    sqrt G), k = -4 nu1 nu2 mu^2 and varkappa = (nu1 - nu2) mu."""
    fr = _frame(f, phi, u, v)
    memo = {}

    def field(name, t, s):
        key = (t, s, mpmath.mp.prec)
        if key not in memo:
            memo[key] = _frame(f, phi, t, s)
        return memo[key][name]

    def partials(name):
        return ([mpmath.diff(lambda t: field(name, t, v)[i], u) for i in range(4)],
                [mpmath.diff(lambda s: field(name, u, s)[i], v) for i in range(4)])
    a = 1 / mpmath.sqrt(2)
    c = a / fr["sqrtG"]   # x = a d/du + c d/dv, y = -a d/du + c d/dv
    D = {}
    for name in ("x", "y", "b"):
        du, dv = partials(name)
        D["x" + name] = _sum((a, du), (c, dv))
        D["y" + name] = _sum((-a, du), (c, dv))
    eps, x, y, b, l, H = (fr[k] for k in ("eps", "x", "y", "b", "l", "H"))
    nu1, nu2 = eps * _dot(D["xx"], b), eps * _dot(D["yy"], b)
    mu = -eps * _dot(D["xy"], l)

    def sqrtG(t):
        return _frame(f, phi, t, v)["sqrtG"]
    return {"gamma1": _dot(D["xx"], y), "gamma2": _dot(D["yy"], x),
            "nu1": nu1, "nu2": nu2, "lam": eps * _dot(D["xy"], b), "mu": mu,
            "beta1": -eps * _dot(D["xb"], l), "beta2": -eps * _dot(D["yb"], l),
            "K": -mpmath.diff(sqrtG, u, 2) / fr["sqrtG"],
            "k": -4 * nu1 * nu2 * mu**2, "varkappa": (nu1 - nu2) * mu,
            "H_n1": _dot(H, fr["n1"]), "H_n2": -_dot(H, fr["n2"]),
            "H_norm": mpmath.sqrt(abs(_dot(H, H)))}


# every profile over every directrix, at two of the points of each
RECORD_POINTS = [(name, dname, u, v) for name, entry in PROFILES.items()
                 for dname, dentry in DIRECTRICES.items()
                 for u in entry[-1][1::2] for v in dentry[-1][1::2]]


def _kernel_record(profile, directrix, u, v):
    spec, f0, u_range, _, _ = PROFILES[profile]
    [r] = eight_invariants(profile_point(spec.realize(f0, u_range), u),
                           (directrix_point(DIRECTRICES[directrix][0], v),))
    return r


def test_the_record_points_have_both_signs_of_eps_and_of_f_prime():
    signs = set()
    for profile, directrix, u, v in RECORD_POINTS:
        spec, f0, u_range, _, _ = PROFILES[profile]
        fp = profile_point(spec.realize(f0, u_range), u).fp
        signs.add((_kernel_record(profile, directrix, u, v).epsilon, fp > 0))
    assert signs == {(1, True), (1, False), (-1, True), (-1, False)}


@pytest.mark.parametrize("profile, directrix, u, v", RECORD_POINTS)
def test_the_invariant_record_agrees_with_mpmath(profile, directrix, u, v):
    r = _kernel_record(profile, directrix, u, v)
    with mpmath.workdps(DIGITS):
        want = _reference_record(PROFILES[profile][3], DIRECTRICES[directrix][1],
                                 mpmath.mpf(u), mpmath.mpf(v))
    assert set(want) == set(RECORD_FIELDS)
    _agree(r._asdict(), want)
