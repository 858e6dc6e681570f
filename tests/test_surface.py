"""Embedding, frames, first fundamental form, and point classification."""

import math

import pytest

from meridian4.errors import (FlatPointError, MarginallyTrappedError,
                              ProfileInvariantError)
from meridian4.expressions import compile_expression
from meridian4.jets import jcos, jsqrt, variable
from meridian4.minkowski import Vec4, minkowski_dot
from meridian4.profile import Directrix, ProfileCurve
from meridian4.invariants import eight_invariants
from meridian4.surface import (MeridianSurface, PointCase, classify_point,
                               embed, first_fundamental_form, normal_frame,
                               normal_pair, point_data, tangent_frame)

UNIT_PHI = Directrix(compile_expression("1", "v"), (0.0, 2.0 * math.pi))
SQRT_SURFACE = MeridianSurface(
    ProfileCurve(lambda u: jsqrt(u + 1.0), (0.0, 3.0), g_origin=-2.0 / 3.0),
    UNIT_PHI)


def vec_close(a: Vec4, b, abs_tol=1e-9):
    assert a.as_array() == pytest.approx(list(b), abs=abs_tol)


def test_embed_reference_point():
    # f(0) = 1, g(0) = -2/3, phi = 1: lightlike coefficients p = -1/6, q = 1.
    z = embed(SQRT_SURFACE, 0.0, 0.0)
    vec_close(z, (1.0, 0.0, -0.8249579113843053, 0.5892556509887896), 1e-9)


def test_embed_rotates_in_e1_e2():
    z0 = embed(SQRT_SURFACE, 1.0, 0.0)
    z1 = embed(SQRT_SURFACE, 1.0, 1.2)
    r0 = math.hypot(z0.c1, z0.c2)
    r1 = math.hypot(z1.c1, z1.c2)
    assert r1 == pytest.approx(r0, abs=1e-10)
    assert (z1.c3, z1.c4) == pytest.approx((z0.c3, z0.c4), abs=1e-10)


def test_tangents_match_finite_differences():
    h = 1e-5
    for (u, v) in ((0.5, 0.3), (1.5, 2.0), (2.5, 4.4)):
        tf = tangent_frame(SQRT_SURFACE, u, v)
        zu = (embed(SQRT_SURFACE, u + h, v) - embed(SQRT_SURFACE, u - h, v)) / (2 * h)
        vec_close(tf.X, zu.as_array(), 1e-8)


def test_first_fundamental_form():
    for (u, v) in ((0.3, 0.1), (2.0, 3.0)):
        E, F, G = first_fundamental_form(SQRT_SURFACE, u, v)
        d = point_data(SQRT_SURFACE, u, v)
        assert E == pytest.approx(1.0, abs=1e-12)
        assert F == pytest.approx(0.0, abs=1e-12)
        assert G == pytest.approx(d.f**2 * d.D, abs=1e-12)


def test_tangent_and_normal_gram():
    for (u, v) in ((0.4, 0.2), (1.7, 2.8), (2.9, 5.5)):
        tf = tangent_frame(SQRT_SURFACE, u, v)
        n1, n2 = normal_pair(SQRT_SURFACE, u, v)
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
    tf = tangent_frame(SQRT_SURFACE, 1.0, 1.0)
    r = 1.0 / math.sqrt(2.0)
    vec_close(tf.xdir, ((tf.X + tf.Y) * r).as_array(), 1e-14)
    vec_close(tf.ydir, ((tf.Y - tf.X) * r).as_array(), 1e-14)


def test_geometric_frame_reference_point():
    # At (0,0) on the sqrt profile: q = 0, kappa f' = -1/2, disc = 1/4 > 0,
    # so b = -n1 and l = n2.
    nf = normal_frame(SQRT_SURFACE, 0.0, 0.0)
    n1, n2 = normal_pair(SQRT_SURFACE, 0.0, 0.0)
    assert nf.epsilon == 1
    vec_close(nf.b, (-1.0 * n1).as_array(), 1e-12)
    vec_close(nf.l, n2.as_array(), 1e-12)


def test_hyperplanar_flat_from_secant_directrix():
    s = MeridianSurface(SQRT_SURFACE.profile,
                        Directrix(compile_expression("sec(v)", "v"), (-1.0, 1.0)))
    assert classify_point(s, 1.0, 0.2) is PointCase.HYPERPLANAR_FLAT
    with pytest.raises(FlatPointError):
        normal_frame(s, 1.0, 0.2)


def test_developable_from_linear_profile():
    s = MeridianSurface(
        ProfileCurve(compile_expression("1 + 0.5*u"), (0.0, 2.0)), UNIT_PHI)
    assert classify_point(s, 1.0, 1.0) is PointCase.DEVELOPABLE_RULED_FLAT
    with pytest.raises(FlatPointError):
        normal_frame(s, 1.0, 1.0)


def test_marginally_trapped_point_on_cosine_profile():
    # f = cos u, phi = 1: disc = sin^2 u - cos^2 2u vanishes at u = pi/6.
    s = MeridianSurface(ProfileCurve(jcos, (0.05, 1.0)), UNIT_PHI)
    u = math.pi / 6.0
    assert classify_point(s, u, 1.0, tol=1e-8) is PointCase.MARGINALLY_TRAPPED
    with pytest.raises(MarginallyTrappedError):
        normal_frame(s, u, 1.0, tol=1e-8)
    # just off the degenerate meridian the frame exists again
    assert classify_point(s, u + 0.2, 1.0) is PointCase.GENERAL


def test_point_data_scalars():
    d = point_data(SQRT_SURFACE, 0.0, 0.0)
    assert d.f == pytest.approx(1.0)
    assert d.fp == pytest.approx(0.5)
    assert d.fpp == pytest.approx(-0.25)
    assert d.gp == pytest.approx(-1.0)
    assert d.kappa == pytest.approx(-1.0)
    assert d.kappa_m == pytest.approx(-0.5)
    assert d.q == pytest.approx(0.0, abs=1e-15)
    assert d.disc == pytest.approx(0.25)


@pytest.mark.parametrize("fn", [point_data, classify_point, tangent_frame,
                                eight_invariants])
def test_vanishing_f_prime_raises_profile_invariant_error(fn):
    s = MeridianSurface(ProfileCurve(compile_expression("u^2 + 1"), (0.0, 1.0)),
                        UNIT_PHI)
    with pytest.raises(ProfileInvariantError):
        fn(s, 0.0, 0.5)
