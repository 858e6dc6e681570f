"""An arbiter for the point records in mpmath: every field of a profile
record and of a directrix record against the closed form of its curve,
written here by hand and differentiated by mpmath.diff at 30 digits.

The reference side reads nothing of meridian4: not the jets, which give
the records their derivatives, and not a record formula. So it checks f''',
phi''' and kappa_dot, which verify's oracle shares with the closed forms
(its jet3 rows check f''' and phi''' only to ORACLE_TOL), and it takes
kappa as the signed curvature of the plane curve phi(v) (cos v, sin v), not
from the record's formula in phi, phi' and phi''. Every u and v is a dyadic
rational, so the float the record is built at is the point itself."""

import pytest

from meridian4.expressions import compile_expression
from meridian4.families import Chen, ConstantGauss, ParallelA, constant_kappa_directrix
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
