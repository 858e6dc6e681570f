"""Profile curve, arc-length normalization, and the two scalar curvatures."""

import math

import pytest
from hypothesis import given, strategies as st

from meridian4.errors import ProfileInvariantError
from meridian4.expressions import compile_expression
from meridian4.jets import jcos, jsqrt, variable
from meridian4.profile import (Directrix, ProfileCurve, g_from_f, kappa,
                               kappa_m, meridian_curvature_general,
                               validate_profile)
from meridian4.surface import MeridianSurface, point_data

SQRT_PROFILE = ProfileCurve(lambda u: jsqrt(u + 1.0), (0.0, 3.0),
                            g_origin=-2.0 / 3.0)


def test_g_matches_closed_form():
    # f = sqrt(u+1) gives g' = -sqrt(u+1), so g = -(2/3)(u+1)^(3/2).
    for u in (0.0, 0.5, 1.0, 2.0, 3.0):
        expected = -(2.0 / 3.0) * (u + 1.0) ** 1.5
        assert g_from_f(SQRT_PROFILE, u) == pytest.approx(expected, abs=1e-9)


def test_normalization_identity():
    for u in (0.0, 0.7, 1.9, 3.0):
        fp = SQRT_PROFILE.f_jet(u).d1
        gp = SQRT_PROFILE.g_prime(u)
        assert -2.0 * fp * gp == pytest.approx(1.0, abs=1e-12)


def test_kappa_m_examples():
    # f = sqrt(u+1): f'' / f' = -1/(2(u+1))
    for u in (0.0, 1.0, 2.5):
        assert kappa_m(SQRT_PROFILE, u) == pytest.approx(
            -0.5 / (u + 1.0), abs=1e-12)
    # f = cos u: f''/f' = cot u
    p = ProfileCurve(jcos, (0.1, 1.4))
    assert kappa_m(p, 0.5) == pytest.approx(1.0 / math.tan(0.5), abs=1e-12)


def test_general_meridian_curvature_agrees_with_normalized():
    f = compile_expression("sqrt(u+1)")
    g = compile_expression("-(2/3)*(u+1)^(3/2)")
    for u in (0.2, 1.1, 2.3):
        assert meridian_curvature_general(f, g, u) == pytest.approx(
            kappa_m(SQRT_PROFILE, u), abs=1e-10)


def test_directrix_kappa_exponential():
    # phi = e^v: kappa = -1/(sqrt(2) e^v)
    d = Directrix(compile_expression("exp(v)", "v"), (0.0, 1.0))
    for v in (0.0, 0.4, 1.0):
        assert kappa(d, v) == pytest.approx(
            -1.0 / (math.sqrt(2.0) * math.exp(v)), abs=1e-12)


@given(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
def test_directrix_kappa_constant_phi(p):
    d = Directrix(lambda v: 0.0 * v + p, (0.0, 2.0 * math.pi))
    assert kappa(d, 1.0) == pytest.approx(-1.0 / p, rel=1e-12)


def test_directrix_kappa_secant_vanishes():
    d = Directrix(compile_expression("sec(v)", "v"), (-1.0, 1.0))
    for v in (-0.8, 0.0, 0.3, 0.9):
        assert kappa(d, v) == pytest.approx(0.0, abs=1e-12)


def test_kappa_derivative_against_finite_difference():
    d = Directrix(compile_expression("2 + 0.5*sin(v)", "v"), (0.0, 6.0))
    v, h = 1.3, 1e-5
    kdot = point_data(MeridianSurface(SQRT_PROFILE, d), 1.0, v).kappa_dot
    fd = (kappa(d, v + h) - kappa(d, v - h)) / (2.0 * h)
    assert kdot == pytest.approx(fd, abs=1e-8)


def test_validate_profile_accepts_good_profile():
    assert validate_profile(SQRT_PROFILE, 64).ok


def test_validate_profile_flags_nonpositive_f():
    p = ProfileCurve(jcos, (0.1, 3.0))  # cos crosses zero at pi/2
    report = validate_profile(p, 128)
    assert not report.ok
    assert report.predicate == "f > 0"


def test_validate_profile_flags_critical_point():
    # f' = -sin u vanishes at the right endpoint u = pi, which the uniform
    # sample grid always includes.
    p = ProfileCurve(lambda u: jcos(u) + 2.0, (0.1, math.pi))
    report = validate_profile(p, 256)
    assert not report.ok
    assert report.predicate == "f' != 0"


def test_g_quadrature_rejects_sign_change():
    p = ProfileCurve(lambda u: jcos(u) + 2.0, (0.1, 3.5))
    with pytest.raises(ProfileInvariantError):
        g_from_f(p, 3.5)


def test_f_jet_checks_domain():
    from meridian4.errors import DomainError
    with pytest.raises(DomainError):
        SQRT_PROFILE.f_jet(5.0)
