"""Profile curve, arc-length normalization, and the two scalar curvatures."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from meridian4.errors import ProfileInvariantError
from meridian4.expressions import compile_expression
from meridian4.families import (ConstantGauss, ConstantMean, ParallelA,
                                constant_kappa_directrix, generate)
from meridian4.jets import constant, jcos, jet_eval, jsqrt, variable
from meridian4.profile import (G_PANELS, Directrix, ProfileCurve, g_from_f,
                               kappa, kappa_m, meridian_curvature_general,
                               validate_profile)
from meridian4.quadrature import adaptive_simpson
from meridian4.surface import MeridianSurface, embed, point_data

SQRT_PROFILE = ProfileCurve(lambda u: jsqrt(u + 1.0), (0.0, 3.0),
                            g_origin=-2.0 / 3.0)


class Counted:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def samples(domain, n):
    u0, u1 = domain
    return [u0 + (u1 - u0) * i / (n - 1) for i in range(n)]


def test_g_matches_closed_form():
    # f = sqrt(u+1) gives g' = -sqrt(u+1), so g = -(2/3)(u+1)^(3/2).
    for u in samples((0.0, 3.0), 201):
        expected = -(2.0 / 3.0) * (u + 1.0) ** 1.5
        assert g_from_f(SQRT_PROFILE, u) == pytest.approx(expected, abs=1e-10)


def test_g_matches_parallel_a_closed_form():
    c, d, a = 2.0, 0.5, 0.25
    gen = generate(ParallelA(c=c, d=d, a=a, sign=1), None, (0.0, 2.0),
                   Directrix(lambda v: constant(1.0), (0.0, 1.0)))
    for u in samples(gen.u_range, 101):
        expected = -(2.0 / (3.0 * c * c)) * (c * u + d) ** 1.5 + a
        assert gen.surface.profile.g(u) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("spec, f0, directrix", [
    (ConstantGauss(K=1.0, alpha=1.0, beta=0.0), None,
     Directrix(lambda v: constant(1.0), (0.0, 1.0))),
    (ConstantMean(a=0.5, b=2.0, C=0.0, epsilon=1, branch=1), 0.6,
     constant_kappa_directrix(2.0, (0.0, 0.3))),
])
def test_g_matches_single_shot_quadrature(spec, f0, directrix):
    profile = generate(spec, f0, (0.1, 0.7), directrix).surface.profile
    u0 = profile.domain[0]

    def g_prime(t):
        return -0.5 / jet_eval(profile.f, t).d1
    for u in samples(profile.domain, 41):
        expected = profile.g_origin + adaptive_simpson(g_prime, u0, u, tol=1e-12)
        assert g_from_f(profile, u) == pytest.approx(expected, abs=1e-10)


def test_g_does_not_depend_on_query_order():
    rng = random.Random(7)
    us = samples((0.0, 3.0), 2 * G_PANELS + 1) + [rng.uniform(0.0, 3.0)
                                                   for _ in range(60)]
    forward = list(us)
    reverse = forward[::-1]
    shuffled = list(us)
    rng.shuffle(shuffled)
    results = []
    for order in (forward, reverse, shuffled):
        p = ProfileCurve(lambda u: jsqrt(u + 1.0), (0.0, 3.0))
        results.append({u: g_from_f(p, u) for u in order})
    assert results[0] == results[1] == results[2]


def test_g_left_of_sign_change_survives_failed_query():
    # f' = -sin u changes sign at pi; a failed query must not spoil the table.
    p = ProfileCurve(lambda u: jcos(u) + 2.0, (0.1, 3.5))
    with pytest.raises(ProfileInvariantError):
        g_from_f(p, 3.4)
    fresh = ProfileCurve(lambda u: jcos(u) + 2.0, (0.1, 3.5))
    for u in (0.5, 2.9, 3.1):
        assert g_from_f(p, u) == g_from_f(fresh, u)


def test_g_work_of_embed_on_a_mesh_grid():
    # The 16x40 grid of the mesh benchmark. Integrating g from u0 at every
    # vertex evaluates f 82,200 times here; the panel table needs under a tenth.
    f = Counted(lambda u: jsqrt(u + 1.0))
    s = MeridianSurface(ProfileCurve(f, (0.0, 3.0)),
                        Directrix(lambda v: constant(1.0), (0.0, 6.28)))
    for u in samples((0.0, 3.0), 16):
        for v in samples((0.0, 6.28), 40):
            embed(s, u, v)
    assert f.calls <= 8220


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
