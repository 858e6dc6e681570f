"""Profile curve, arc-length normalization, and the two scalar curvatures."""

import gc
import math
import random
import time
import weakref

import pytest
from hypothesis import given, strategies as st

from meridian4 import families, odeint
from meridian4.errors import (DomainError, ProfileInvariantError,
                              QuadratureLimitError)
from meridian4.expressions import compile_expression
from meridian4.families import (Chen, ConstantGauss, ConstantK, ConstantMean,
                                ParallelA, ParallelB, constant_kappa_directrix,
                                generate, integrate_autonomous,
                                profile_from_path)
from meridian4.jets import constant, jcos, jet_eval, jsqrt, variable
from meridian4.profile import (FPRIME_FLOOR, Directrix, ProfileCurve,
                               directrix_point, g_from_f, profile_point)
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
        assert g_from_f(gen.surface.profile, u) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("spec, f0, directrix", [
    (ConstantGauss(K=1.0, alpha=1.0, beta=0.0), None,
     Directrix(lambda v: constant(1.0), (0.0, 1.0))),
    (ConstantMean(a=0.5, b=2.0, C=0.0, epsilon=1, branch=1), 0.6,
     constant_kappa_directrix(2.0, (0.0, 0.3))),
])
def test_g_matches_single_shot_quadrature(spec, f0, directrix):
    mpmath = pytest.importorskip("mpmath")
    profile = generate(spec, f0, (0.1, 0.7), directrix).surface.profile
    u0 = profile.domain[0]

    def g_prime(t):
        return -0.5 / jet_eval(profile.f, float(t)).d1
    with mpmath.workdps(30):
        for u in samples(profile.domain, 41):
            expected = profile.g_origin + float(mpmath.quad(g_prime, [u0, u]))
            assert g_from_f(profile, u) == pytest.approx(expected, abs=1e-10)


def test_g_does_not_depend_on_query_order():
    rng = random.Random(7)
    us = samples((0.0, 3.0), 129) + [rng.uniform(0.0, 3.0) for _ in range(60)]
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
    # f' = -sin u changes sign at pi; a failed query must not spoil the pass.
    p = ProfileCurve(lambda u: jcos(u) + 2.0, (0.1, 3.5))
    with pytest.raises(ProfileInvariantError):
        g_from_f(p, 3.4)
    fresh = ProfileCurve(lambda u: jcos(u) + 2.0, (0.1, 3.5))
    for u in (0.5, 2.9, 3.1):
        assert g_from_f(p, u) == g_from_f(fresh, u)


def test_g_work_of_embed_on_a_mesh_grid():
    # The 16x40 grid of the mesh benchmark. Integrating g from u0 at every
    # vertex evaluates f 82,200 times here; one Dormand-Prince pass over the
    # domain needs 265 evaluations (44 steps), and the records of the rows 16.
    f = Counted(lambda u: jsqrt(u + 1.0))
    s = MeridianSurface(ProfileCurve(f, (0.0, 3.0)),
                        Directrix(lambda v: constant(1.0), (0.0, 6.28)))
    for u in samples((0.0, 3.0), 16):
        for v in samples((0.0, 6.28), 40):
            embed(profile_point(s.profile, u), directrix_point(s.directrix, v),
                  g_from_f(s.profile, u))
    assert f.calls <= 281


def test_a_profile_that_integrated_g_is_freed_with_its_last_reference():
    # a profile in a reference cycle would outlive it until the cycle
    # collector ran, and a mesh run's peak memory would count it
    def f(u):
        return jsqrt(u + 1.0)
    f_alive = weakref.ref(f)
    gc.disable()
    try:
        p = ProfileCurve(f, (0.0, 3.0))
        g_from_f(p, 1.5)
        del f, p
        assert f_alive() is None
    finally:
        gc.enable()


def test_normalization_identity():
    for u in (0.0, 0.7, 1.9, 3.0):
        fp = SQRT_PROFILE.f_jet(u).d1
        gp = profile_point(SQRT_PROFILE, u).gp
        assert -2.0 * fp * gp == pytest.approx(1.0, abs=1e-12)


def test_kappa_m_examples():
    # f = sqrt(u+1): f'' / f' = -1/(2(u+1))
    for u in (0.0, 1.0, 2.5):
        assert profile_point(SQRT_PROFILE, u).kappa_m == pytest.approx(
            -0.5 / (u + 1.0), abs=1e-12)
    # f = cos u: f''/f' = cot u
    p = ProfileCurve(jcos, (0.1, 1.4))
    assert profile_point(p, 0.5).kappa_m == pytest.approx(
        1.0 / math.tan(0.5), abs=1e-12)


def test_general_meridian_curvature_agrees_with_normalized():
    # (f' g'' - g' f'') / (-2 f' g')^(3/2) for the unnormalized pair (f, g)
    f = compile_expression("sqrt(u+1)")
    g = compile_expression("-(2/3)*(u+1)^(3/2)")
    for u in (0.2, 1.1, 2.3):
        fj, gj = jet_eval(f, u), jet_eval(g, u)
        general = (fj.d1 * gj.d2 - gj.d1 * fj.d2) / (-2.0 * fj.d1 * gj.d1)**1.5
        assert general == pytest.approx(
            profile_point(SQRT_PROFILE, u).kappa_m, abs=1e-10)


def test_directrix_kappa_exponential():
    # phi = e^v: kappa = -1/(sqrt(2) e^v)
    d = Directrix(compile_expression("exp(v)", "v"), (0.0, 1.0))
    for v in (0.0, 0.4, 1.0):
        assert directrix_point(d, v).kappa == pytest.approx(
            -1.0 / (math.sqrt(2.0) * math.exp(v)), abs=1e-12)


@given(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
def test_directrix_kappa_constant_phi(p):
    d = Directrix(lambda v: 0.0 * v + p, (0.0, 2.0 * math.pi))
    assert directrix_point(d, 1.0).kappa == pytest.approx(-1.0 / p, rel=1e-12)


def test_directrix_kappa_secant_vanishes():
    d = Directrix(compile_expression("sec(v)", "v"), (-1.0, 1.0))
    for v in (-0.8, 0.0, 0.3, 0.9):
        assert directrix_point(d, v).kappa == pytest.approx(0.0, abs=1e-12)


def test_kappa_derivative_against_finite_difference():
    d = Directrix(compile_expression("2 + 0.5*sin(v)", "v"), (0.0, 6.0))
    v, h = 1.3, 1e-5
    kdot = point_data(MeridianSurface(SQRT_PROFILE, d), 1.0, v).c.kappa_dot
    fd = (directrix_point(d, v + h).kappa
          - directrix_point(d, v - h).kappa) / (2.0 * h)
    assert kdot == pytest.approx(fd, abs=1e-8)


def _closed_form_end(spec, u_range):
    gen = generate(spec, None, u_range, Directrix(lambda v: constant(1.0), (0.0, 1.0)))
    end = gen.u_range[1]
    fj = gen.surface.profile.f_jet(end)
    assert fj.f > 0.0 and abs(fj.d1) >= FPRIME_FLOOR
    return end, gen.truncated


def test_validate_profile_accepts_good_profile():
    # f = sqrt(u + 1) is admissible on all of [0, 3]
    assert _closed_form_end(ParallelA(c=1.0, d=1.0), (0.0, 3.0)) == (3.0, False)


def test_validate_profile_flags_nonpositive_f():
    # cos crosses zero at pi/2: the range ends there, not on a sample grid
    end, truncated = _closed_form_end(ConstantGauss(K=1.0, alpha=1.0, beta=0.0),
                                      (0.1, 3.0))
    assert truncated and abs(end - math.pi / 2) <= 1e-12


def test_validate_profile_flags_critical_point():
    # f = cos u + sin u stays positive past pi/4, where f' = cos u - sin u
    # vanishes: the range ends where |f'| meets the floor
    end, truncated = _closed_form_end(ConstantGauss(K=1.0, alpha=1.0, beta=1.0),
                                      (0.1, 2.0))
    assert truncated and abs(end - math.pi / 4) <= 1e-8


def test_g_quadrature_rejects_sign_change():
    p = ProfileCurve(lambda u: jcos(u) + 2.0, (0.1, 3.5))
    with pytest.raises(ProfileInvariantError):
        g_from_f(p, 3.5)


def test_f_jet_checks_domain():
    with pytest.raises(DomainError):
        SQRT_PROFILE.f_jet(5.0)


@pytest.mark.parametrize("u", [354.7, 690.0])
def test_profile_record_that_is_not_finite_is_a_domain_error(u):
    # f = e^u: at u = 354.7 f f'' + f'^2 rounds to inf, at 690 f'^2 overflows
    p = ProfileCurve(compile_expression("exp(u)"), (0.0, 700.0))
    with pytest.raises(DomainError, match=f"profile record at u = {u} is not finite"):
        profile_point(p, u)
    assert not p._points


def test_directrix_record_that_overflows_is_a_domain_error():
    d = Directrix(compile_expression("exp(v)", "v"), (0.0, 400.0))
    with pytest.raises(DomainError, match="directrix record at v = 360.0 is not finite"):
        directrix_point(d, 360.0)
    assert not d._points


# --- g of generated profiles, without a quadrature pass -----------------------

UNIT_PHI = Directrix(lambda v: constant(1.0), (0.0, 1.0))


@pytest.fixture
def no_quadrature(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("quadrature_path called")

    monkeypatch.setattr(odeint, "quadrature_path", fail)


@pytest.mark.parametrize("spec, u_range", [
    (ConstantGauss(K=2.5, alpha=0.7, beta=-1.3), (-0.5, 1.0)),    # delta != 0
    (ConstantGauss(K=-1.0, alpha=3.0, beta=1.0), (-2.0, 2.0)),    # P Q > 0
    (ConstantGauss(K=-2.0, alpha=1.0, beta=3.0), (0.1, 2.0)),     # P Q < 0
    (ConstantGauss(K=-0.5, alpha=1.5, beta=1.5), (-1.0, 2.0)),    # Q = 0
    (ConstantGauss(K=-0.5, alpha=1.5, beta=-1.5), (-1.0, 2.0)),   # P = 0
    # a large scale 1/|K| or 1/sqrt|P Q| on a small change of the antiderivative
    (ConstantGauss(K=1e-8, alpha=1.0, beta=1.0), (0.0, 2.0)),
    (ConstantGauss(K=-1e-8, alpha=3.0, beta=1.0), (0.0, 2.0)),
    (ConstantGauss(K=-1e-8, alpha=1.0, beta=3.0), (0.1, 2.0)),
    (ConstantGauss(K=-1e-8, alpha=1.0, beta=1.0), (0.0, 2.0)),
    (ConstantGauss(K=-1.0, alpha=1.0, beta=1.0 - 1e-14), (0.0, 2.0)),  # P Q > 0
    (ConstantGauss(K=-1.0, alpha=1.0, beta=1.0 + 1e-14), (0.0, 2.0)),  # P Q < 0
])
def test_constant_gauss_g_against_mpmath(spec, u_range, no_quadrature):
    mpmath = pytest.importorskip("mpmath")
    p = generate(spec, None, u_range, UNIT_PHI).surface.profile
    u0 = p.domain[0]
    with mpmath.workdps(30):
        K, a, b = (mpmath.mpf(x) for x in (spec.K, spec.alpha, spec.beta))
        r = mpmath.sqrt(abs(K))
        if K > 0:
            def fp(t):
                return r * (-a * mpmath.sin(r * t) + b * mpmath.cos(r * t))
        else:
            def fp(t):
                return r * (a * mpmath.sinh(r * t) + b * mpmath.cosh(r * t))
        for u in samples(p.domain, 13)[1:-1]:
            expected = mpmath.quad(lambda t: -1 / (2 * fp(t)), [u0, u])
            assert g_from_f(p, u) == pytest.approx(float(expected), abs=1e-10)


@pytest.mark.parametrize("spec, f0, u_range", [
    (ConstantMean(a=0.5, b=2.0, C=0.0, epsilon=1, branch=1), 0.6, (0.0, 1.0)),
    (ConstantK(a=1.0, b=-1.0, c=0.5, branch=1), 0.5, (0.0, 0.5)),
    (Chen(b=1.0, c=1.0, exponent_branch=1), 1.0, (0.0, 0.5)),
    (ParallelB(a=1.0, c=1.0, b=-2.0), 1.0, (0.0, 0.5)),
])
def test_ode_g_against_mpmath(spec, f0, u_range, no_quadrature):
    # du = df / y(f) along the path, so g(u) is the integral of
    # -1/(2 y(f)^2) from f0 to f(u): a reference that shares only f(u)
    mpmath = pytest.importorskip("mpmath")
    y = spec.y()
    path = integrate_autonomous(y, f0, u_range)
    p = profile_from_path(path, y)
    ts = path.ts
    with mpmath.workdps(30):
        for i in range(0, len(ts) - 1, max(1, len(ts) // 10)):
            u = 0.5 * (ts[i] + ts[i + 1])          # off the step nodes
            expected = mpmath.quad(
                lambda f: -0.5 / mpmath.mpf(y(float(f))) ** 2, [f0, path(u)])
            # within G_TOL by a margin: the cubic Hermite part of the
            # continuous extension alone misses by up to 5e-11 here
            assert g_from_f(p, u) == pytest.approx(float(expected), abs=1e-12)


def test_g_next_to_an_f_prime_zero_returns_at_once():
    # f = cos u + sin u = sqrt2 cos(u - pi/4): f' vanishes at pi/4. Adaptive
    # quadrature of g up to |f'| = 1e-5 there ground for 40 s and then failed.
    p = generate(ConstantGauss(K=1.0, alpha=1.0, beta=1.0), None, (0.1, 2.0),
                 UNIT_PHI).surface.profile
    u = math.pi / 4 - math.asin(1e-5 / math.sqrt(2.0))
    assert p.f_jet(u).d1 == pytest.approx(1e-5, rel=1e-6)
    start = time.perf_counter()
    g = g_from_f(p, u)
    assert time.perf_counter() - start < 1.0
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        def G(t):
            return mpmath.log(abs(mpmath.tan((mpmath.mpf(t) - mpmath.pi / 4) / 2)))
        expected = (G(u) - G(0.1)) / (2 * mpmath.sqrt(2))
    assert g == pytest.approx(float(expected), abs=1e-10)


def test_ode_g_raises_past_its_error_estimate(monkeypatch):
    y = ConstantK(a=1.0, b=-1.0, c=0.5, branch=1).y()
    path = integrate_autonomous(y, 0.5, (0.0, 0.5))
    p = profile_from_path(path, y)
    j = len(path.ts) // 2
    assert path.gerr[j - 1] < path.gerr[j]
    monkeypatch.setattr(families, "G_TOL", path.gerr[j - 1])
    g_from_f(p, 0.5 * (path.ts[j - 1] + path.ts[j]))
    with pytest.raises(QuadratureLimitError, match="error estimate"):
        g_from_f(p, 0.5 * (path.ts[j] + path.ts[j + 1]))
