"""Embedding, frames, first fundamental form, and point classification."""

import math

import numpy as np
import pytest

from meridian4.cli import build_surface, parse_family_spec
from meridian4.errors import (DomainError, FlatPointError,
                              MarginallyTrappedError, ProfileInvariantError)
from meridian4.expressions import compile_expression
from meridian4.jets import jcos, jsqrt, variable
from meridian4.minkowski import Vec4, from_lightlike, minkowski_dot
from meridian4.profile import (Directrix, DirectrixPoint, ProfileCurve,
                               ProfilePoint, directrix_point, g_from_f,
                               profile_point)
from meridian4.invariants import _value, dual_frames, eight_invariants
from meridian4.surface import (MeridianSurface, PointCase, PointFrames,
                               combine, embed, frames, point_data)

UNIT_PHI = Directrix(compile_expression("1", "v"), (0.0, 2.0 * math.pi))
SQRT_SURFACE = MeridianSurface(
    ProfileCurve(lambda u: jsqrt(u + 1.0), (0.0, 3.0), g_origin=-2.0 / 3.0),
    UNIT_PHI)


def point_under(s, u, v, tol):
    """The record at (u, v), its case decided under tol."""
    return combine(profile_point(s.profile, u), directrix_point(s.directrix, v), tol)


def components(v):
    return (v.c1, v.c2, v.c3, v.c4)


def vec_close(a: Vec4, b, abs_tol=1e-9):
    assert components(a) == pytest.approx(list(b), abs=abs_tol)


def z(s, u, v):
    return embed(profile_point(s.profile, u), directrix_point(s.directrix, v),
                 g_from_f(s.profile, u))


def frame(s, u, v):
    return frames(point_data(s, u, v))


def test_embed_reference_point():
    # f(0) = 1, g(0) = -2/3, phi = 1: lightlike coefficients p = -1/6, q = 1.
    vec_close(z(SQRT_SURFACE, 0.0, 0.0),
              (1.0, 0.0, -0.8249579113843053, 0.5892556509887896), 1e-9)


def test_embed_rotates_in_e1_e2():
    z0 = z(SQRT_SURFACE, 1.0, 0.0)
    z1 = z(SQRT_SURFACE, 1.0, 1.2)
    r0 = math.hypot(z0.c1, z0.c2)
    r1 = math.hypot(z1.c1, z1.c2)
    assert r1 == pytest.approx(r0, abs=1e-10)
    assert (z1.c3, z1.c4) == pytest.approx((z0.c3, z0.c4), abs=1e-10)


def test_tangents_match_finite_differences():
    h = 1e-5
    for (u, v) in ((0.5, 0.3), (1.5, 2.0), (2.5, 4.4)):
        tf = frame(SQRT_SURFACE, u, v)
        zu = (z(SQRT_SURFACE, u + h, v) - z(SQRT_SURFACE, u - h, v)) / (2 * h)
        vec_close(tf.X, components(zu), 1e-8)


def test_first_fundamental_form():
    for (u, v) in ((0.3, 0.1), (2.0, 3.0)):
        # E = -2 f' g' and G = f^2 D from point_data against the Gram matrix
        # of central differences of the embedding
        d = point_data(SQRT_SURFACE, u, v)
        h = 1e-5
        z_u = (z(SQRT_SURFACE, u + h, v) - z(SQRT_SURFACE, u - h, v)) / (2 * h)
        z_v = (z(SQRT_SURFACE, u, v + h) - z(SQRT_SURFACE, u, v - h)) / (2 * h)
        E, G = -2.0 * d.p.fp * d.p.gp, d.p.f**2 * d.c.D
        assert E == pytest.approx(1.0, abs=1e-12)
        assert minkowski_dot(z_u, z_u) == pytest.approx(E, abs=1e-8)
        assert minkowski_dot(z_u, z_v) == pytest.approx(0.0, abs=1e-8)
        assert minkowski_dot(z_v, z_v) == pytest.approx(G, abs=1e-8)


def test_tangent_and_normal_gram():
    for (u, v) in ((0.4, 0.2), (1.7, 2.8), (2.9, 5.5)):
        tf = frame(SQRT_SURFACE, u, v)
        n1, n2 = tf.n1, tf.n2
        assert minkowski_dot(tf.X, tf.X) == pytest.approx(1.0, abs=1e-12)
        assert minkowski_dot(tf.Y, tf.Y) == pytest.approx(1.0, abs=1e-12)
        assert minkowski_dot(tf.X, tf.Y) == pytest.approx(0.0, abs=1e-12)
        assert minkowski_dot(n1, n1) == pytest.approx(1.0, abs=1e-12)
        assert minkowski_dot(n2, n2) == pytest.approx(-1.0, abs=1e-12)
        assert minkowski_dot(n1, n2) == pytest.approx(0.0, abs=1e-12)
        for t in (tf.X, tf.Y):
            for n in (n1, n2):
                assert minkowski_dot(t, n) == pytest.approx(0.0, abs=1e-12)


def test_principal_tangents_are_rotation_of_X_Y():
    tf = frame(SQRT_SURFACE, 1.0, 1.0)
    r = 1.0 / math.sqrt(2.0)
    vec_close(tf.x, components((tf.X + tf.Y) * r), 1e-14)
    vec_close(tf.y, components((tf.Y - tf.X) * r), 1e-14)


def test_geometric_frame_reference_point():
    # At (0,0) on the sqrt profile: q = 0, kappa f' = -1/2, disc = 1/4 > 0,
    # so b = -n1 and l = -n2.
    nf = frame(SQRT_SURFACE, 0.0, 0.0)
    n1, n2 = nf.n1, nf.n2
    assert nf.epsilon == 1
    vec_close(nf.b, components(-1.0 * n1), 1e-12)
    vec_close(nf.l, components(-1.0 * n2), 1e-12)


@pytest.mark.parametrize("spec, f0, u, eps, fp_sign", [
    ("parallel-a c=1 d=1", None, 1.0, 1, 1),
    ("constant-mean a=0.5 b=2 C=0 eps=- branch=+", 0.6, 0.15, -1, 1),
    ("direct f=cos(u) phi=1", None, 0.3, -1, -1),
    ("direct f=cos(u) phi=1", None, 0.8, 1, -1),
])
def test_frame_convention(spec, f0, u, eps, fp_sign):
    # det(x, y, b, l) = -1 in e-coordinates and b = sign(f') H/||H|| at both
    # signs of <H,H> and of f'
    parsed, phi = parse_family_spec(spec)
    s = build_surface(parsed, phi, f0, (0.0, 1.0), (0.0, 0.3)).surface
    v = 0.2
    d = point_data(s, u, v)
    assert (d.disc > 0) == (eps > 0) and (d.p.fp > 0) == (fp_sign > 0)
    nf = frames(d)
    assert nf.epsilon == eps
    rows = [components(w) for w in (nf.x, nf.y, nf.b, nf.l)]
    assert np.linalg.det(np.array(rows)) == pytest.approx(-1.0, abs=1e-12)
    r = eight_invariants(d.p, (d.c,))[0]
    vec_close(nf.b, components((r.H_n1 * nf.n1 + r.H_n2 * nf.n2) * (fp_sign / r.H_norm)),
              1e-12)


@pytest.mark.parametrize("s, u, eps", [
    (SQRT_SURFACE, 1.0, 1),
    (MeridianSurface(ProfileCurve(jcos, (0.05, 0.45)), UNIT_PHI), 0.3, -1)])
def test_one_frame_builder_serves_every_reader(s, u, eps):
    # frames over floats and the oracle's frame over duals give the same
    # record, field by field: the values of the duals are the floats
    # (compared by repr)
    v = 0.7
    nf = frame(s, u, v)
    dual = dual_frames(point_data(s, u, v))
    assert nf.epsilon == dual.epsilon == eps
    for name in PointFrames.__slots__[1:-1]:
        assert repr(getattr(nf, name)) == repr(_value(getattr(dual, name))), name


def _family_point(spec, f0, u, v=0.2):
    parsed, phi = parse_family_spec(spec)
    return point_data(build_surface(parsed, phi, f0, (0.0, 1.0), (0.0, 6.0)).surface, u, v)


def _signed_zero_point():
    # phi' = -0.0: z_v's third lightlike coordinate f phi phi' is -0.0
    p = record_pair(1.0, 1.0, 0.5)[0]
    return combine(p, DirectrixPoint(v=1.0, phi=1.0, phid=-0.0, phidd=2.0, phiddd=0.0,
                                     kappa=1.0, kappa_dot=0.0, D=1.0))


# (point, epsilon, sign of f'); epsilon None where b and l are undefined
OPERATOR_FRAME_POINTS = {
    "eps+,fp+": (lambda: _family_point("parallel-a c=1 d=1", None, 1.0), 1, 1),
    "eps-,fp+": (lambda: _family_point("constant-mean a=0.5 b=2 C=0 eps=- branch=+",
                                       0.6, 0.15), -1, 1),
    "eps-,fp-": (lambda: _family_point("direct f=cos(u) phi=1", None, 0.3), -1, -1),
    "eps+,fp-": (lambda: _family_point("direct f=cos(u) phi=1", None, 0.8), 1, -1),
    "kappa_dot": (lambda: _family_point(
        "constant-gauss K=-1 alpha=1 beta=0.5 phi=2+cos(v)", None, 0.5, 1.0), -1, 1),
    "phid=-0": (_signed_zero_point, 1, 1),
    "flat": (lambda: point_data(MeridianSurface(
        SQRT_SURFACE.profile, Directrix(compile_expression("sec(v)", "v"), (-1.0, 1.0))),
        1.0, 0.2), None, 1),
    "trapped": (lambda: point_under(MeridianSurface(ProfileCurve(jcos, (0.05, 1.0)),
                                                    UNIT_PHI), math.pi / 6.0, 1.0, 1e-8),
                None, -1),
}


def assert_operator_bits(d):
    """frames(d) writes out each vector's components; Vec4's operators must
    give the same bits (compared by repr, so signed zeros count)."""
    nf = frames(d)
    p, c = d.p, d.c
    cv, sv = math.cos(c.v), math.sin(c.v)
    z_v = from_lightlike(p.f * (c.phid * cv - c.phi * sv), p.f * (c.phid * sv + c.phi * cv),
                         p.f * c.phi * c.phid, 0.0)
    Y = z_v / (p.f * math.sqrt(c.D))
    want = {"Y": Y, "x": (nf.X + Y) / math.sqrt(2.0),
            "y": (-1.0 * nf.X + Y) / math.sqrt(2.0), "b": None, "l": None}
    if nf.epsilon is not None:
        kfp, q, root = c.kappa * p.fp, p.q, math.sqrt(abs(d.disc))
        want["b"] = (kfp * nf.n1 - q * nf.n2) / root
        want["l"] = (kfp * nf.n2 - q * nf.n1) * (nf.epsilon / root)
    for field, w in want.items():
        assert repr(getattr(nf, field)) == repr(w), (field, p.u, c.v)
    return nf


@pytest.mark.parametrize("name", list(OPERATOR_FRAME_POINTS))
def test_frames_match_the_operator_formulas_bit_for_bit(name):
    build, eps, fp_sign = OPERATOR_FRAME_POINTS[name]
    d = build()
    nf = assert_operator_bits(d)
    assert (d.p.fp > 0) == (fp_sign > 0) and nf.epsilon == eps
    if name == "phid=-0":
        assert (repr(nf.Y.c3), repr(nf.Y.c4)) == ("-0.0", "0.0")


def test_frames_match_the_operator_formulas_over_a_grid():
    # 400 points at both signs of <H,H> and kappa_dot != 0
    for text in ("constant-gauss K=-1 alpha=1 beta=0.5 phi=2+cos(v)",
                 "constant-gauss K=-1 alpha=1 beta=0.5 phi=0.2+0.05*cos(v)"):
        parsed, phi = parse_family_spec(text)
        s = build_surface(parsed, phi, None, (0.0, 1.0), (0.0, 6.0)).surface
        for i in range(20):
            for j in range(10):
                assert_operator_bits(point_data(s, 0.05 * i, 0.6 * j))


def test_hyperplanar_flat_from_secant_directrix():
    s = MeridianSurface(SQRT_SURFACE.profile,
                        Directrix(compile_expression("sec(v)", "v"), (-1.0, 1.0)))
    d = point_data(s, 1.0, 0.2)
    assert d.case is PointCase.HYPERPLANAR_FLAT
    tf = frames(d)
    assert tf.b is None and tf.l is None and tf.epsilon is None
    assert eight_invariants(d.p, (d.c,)) == [PointCase.HYPERPLANAR_FLAT]
    with pytest.raises(FlatPointError):
        dual_frames(d)


def test_developable_from_linear_profile():
    s = MeridianSurface(
        ProfileCurve(compile_expression("1 + 0.5*u"), (0.0, 2.0)), UNIT_PHI)
    d = point_data(s, 1.0, 1.0)
    assert d.case is PointCase.DEVELOPABLE_RULED_FLAT
    assert eight_invariants(d.p, (d.c,)) == [PointCase.DEVELOPABLE_RULED_FLAT]
    with pytest.raises(FlatPointError):
        dual_frames(d)


def test_marginally_trapped_point_on_cosine_profile():
    # f = cos u, phi = 1: disc = sin^2 u - cos^2 2u vanishes at u = pi/6.
    s = MeridianSurface(ProfileCurve(jcos, (0.05, 1.0)), UNIT_PHI)
    u = math.pi / 6.0
    d = point_under(s, u, 1.0, 1e-8)
    assert d.case is PointCase.MARGINALLY_TRAPPED
    assert eight_invariants(d.p, (d.c,), 1e-8) == [PointCase.MARGINALLY_TRAPPED]
    with pytest.raises(MarginallyTrappedError):
        dual_frames(d)
    # just off the degenerate meridian the frame exists again
    assert point_data(s, u + 0.2, 1.0).case is PointCase.GENERAL


def test_point_data_scalars():
    d = point_data(SQRT_SURFACE, 0.0, 0.0)
    # the record references the curves' own records and copies none of them
    p, c = d.p, d.c
    assert p is profile_point(SQRT_SURFACE.profile, 0.0)
    assert c is directrix_point(SQRT_SURFACE.directrix, 0.0)
    assert p.f == pytest.approx(1.0)
    assert p.fp == pytest.approx(0.5)
    assert p.fpp == pytest.approx(-0.25)
    assert p.gp == pytest.approx(-1.0)
    assert c.kappa == pytest.approx(-1.0)
    assert p.kappa_m == pytest.approx(-0.5)
    assert p.q == pytest.approx(0.0, abs=1e-15)
    assert d.disc == pytest.approx(0.25)


def record_pair(kappa, fp, q, f=1.0):
    """A profile record and a directrix record at (0.5, 1.0) with the given
    kappa, f', q and f and kappa_m = 100; phi = 1 and phi' = 0, so that
    kappa = phi'' - 1."""
    p = ProfilePoint(u=0.5, f=f, fp=fp, fpp=100.0 * fp, fppp=0.0,
                     gp=-0.5 / fp, kappa_m=100.0, q=q, gamma1=fp / math.sqrt(2.0),
                     K=-100.0 * fp)
    c = DirectrixPoint(v=1.0, phi=1.0, phid=0.0, phidd=kappa + 1.0, phiddd=0.0,
                       kappa=kappa, kappa_dot=0.0, D=1.0)
    return p, c


@pytest.mark.parametrize("kappa, fp, q, tol", [
    (1.0, 1.0, 1e200, 1e-9),      # q^2 overflows and raises
    (1e154, 10.0, 1.0, 1e-9),     # kappa^2 f'^2 rounds to inf
    (1e154, 1.0, 1.0, 10.0)],     # disc is finite, the case's bound is not
    ids=["q-squared", "kappa-fp-squared", "bound"])
def test_combine_raises_where_the_record_is_not_finite(kappa, fp, q, tol):
    with pytest.raises(DomainError, match=r"^the point record at \(u, v\) = "
                       r"\(0.5, 1.0\) is not finite$"):
        combine(*record_pair(kappa, fp, q), tol)


def test_combine_decides_a_flat_point_without_the_bound():
    # |kappa| <= tol: the case needs no bound, even one that would overflow
    d = combine(*record_pair(1e100, 1.0, 1.0), 1e200)
    assert d.case is PointCase.HYPERPLANAR_FLAT


def test_invariants_raise_where_a_u_factor_is_not_finite():
    # the record is finite and general, but f'^4 overflows
    d = combine(*record_pair(1.0, 1e80, 1.0))
    assert d.case is PointCase.GENERAL
    for _ in range(2):   # and nothing is kept of the failed factors
        with pytest.raises(DomainError, match=r"^a factor of the invariants at "
                           r"u = 0.5 is not finite$"):
            eight_invariants(d.p, (d.c,))[0]
    assert d.p._terms is None


POINT_NOT_FINITE = r"^the invariants at \(u, v\) = \(0.5, 1.0\) are not finite$"


@pytest.mark.parametrize("kappa, fp, q, f, message", [
    # every u-only factor is finite, but k = -kappa_m^2 kappa^2 / f^2 overflows
    (1e153, 1.0, 1.0, 1.0, POINT_NOT_FINITE),
    (1.0, 1e-9, 1.0, 1e-160, POINT_NOT_FINITE),   # over a subnormal f^2 = 1e-320
    # f^2, the divisor of k, underflows to 0: a factor of u alone
    (1.0, 1.0, 2.0, 1e-300,
     r"^a factor of the invariants at u = 0.5 is not finite$")],
    ids=["k", "f-subnormal-square", "f-square-zero"])
def test_invariants_raise_where_the_record_is_not_finite(kappa, fp, q, f, message):
    d = combine(*record_pair(kappa, fp, q, f))
    assert d.case is PointCase.GENERAL
    with pytest.raises(DomainError, match=message):
        eight_invariants(d.p, (d.c,))[0]


@pytest.mark.parametrize("read", [lambda d: d, frames, eight_invariants],
                         ids=["point_data", "frames", "eight_invariants"])
def test_vanishing_f_prime_raises_profile_invariant_error(read):
    s = MeridianSurface(ProfileCurve(compile_expression("u^2 + 1"), (0.0, 1.0)),
                        UNIT_PHI)
    with pytest.raises(ProfileInvariantError):
        read(point_data(s, 0.0, 0.5))


@pytest.mark.parametrize("f, u", [("u+u^2", 0.0), ("u-1", 0.5)])
def test_non_positive_f_raises_profile_invariant_error(f, u):
    s = MeridianSurface(ProfileCurve(compile_expression(f), (0.0, 1.0)), UNIT_PHI)
    with pytest.raises(ProfileInvariantError, match="is not positive"):
        point_data(s, u, 0.5)
