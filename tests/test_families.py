"""Classified families: profile ODEs, generation, and defining properties."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from meridian4 import families, odeint
from meridian4.errors import MeridianError, ProfileInvariantError, SpecMismatchError
from meridian4.expressions import compile_expression
from meridian4.families import (PROFILE_SAMPLES, Chen, ConstantGauss, ConstantK,
                                ConstantMean, ParallelA, ParallelB,
                                constant_kappa_directrix, generate,
                                integrate_autonomous)
from meridian4.jets import jet_eval
from meridian4.invariants import eight_invariants
from meridian4.profile import (FPRIME_FLOOR, G_TOL, Directrix, directrix_point,
                               g_from_f, profile_point, sample_grid)
from meridian4.surface import point_data

TWO_PI = 2.0 * math.pi
UNIT_PHI = Directrix(compile_expression("1", "v"), (0.0, TWO_PI))


def invariants_at(s, u, v):
    return eight_invariants(point_data(s, u, v))


def u_samples(gen, n=25):
    u0, u1 = gen.u_range
    pad = 1e-6 * (u1 - u0)
    return [u0 + pad + (u1 - u0 - 2 * pad) * i / (n - 1) for i in range(n)]


# --- spec validation ----------------------------------------------------------

def test_zero_parameters_rejected():
    with pytest.raises(SpecMismatchError):
        ConstantGauss(K=0.0, alpha=1.0, beta=0.0)
    with pytest.raises(SpecMismatchError):
        ConstantMean(a=0.0, b=1.0, C=0.0, epsilon=1, branch=1)
    with pytest.raises(SpecMismatchError):
        ConstantK(a=1.0, b=0.0, c=0.5, branch=1)
    with pytest.raises(SpecMismatchError):
        Chen(b=1.0, c=0.0, exponent_branch=1)
    with pytest.raises(SpecMismatchError):
        ParallelB(a=1.0, c=1.0, b=0.0)


def test_bad_sign_values_rejected():
    with pytest.raises(SpecMismatchError):
        ConstantMean(a=0.5, b=2.0, C=0.0, epsilon=2, branch=1)
    with pytest.raises(SpecMismatchError):
        ConstantK(a=1.0, b=-1.0, c=0.5, branch=0)


# --- profile ODE right-hand sides --------------------------------------------

def test_y_of_t_pinned_values():
    def y_of_t(spec, t):
        return jet_eval(spec.y(), t).f

    assert y_of_t(ConstantMean(a=0.5, b=2.0, C=0.0, epsilon=1, branch=1),
                  1.0) == pytest.approx(1.9132229549810364, abs=1e-9)
    assert y_of_t(ConstantMean(a=0.5, b=1.0, C=0.0, epsilon=-1, branch=1),
                  1.0) == pytest.approx(1.147793574696319, abs=1e-9)
    # y(t) = c - a t^2 / (2b) at a=1, b=-1, c=0.5, t=1
    assert y_of_t(ConstantK(a=1.0, b=-1.0, c=0.5, branch=-1),
                  1.0) == pytest.approx(1.0, abs=1e-12)
    # y(t) = (c^2 t^2 + b^2)/(2 c t) at b=c=1, t=2
    assert y_of_t(Chen(b=1.0, c=1.0, exponent_branch=1),
                  2.0) == pytest.approx(1.25, abs=1e-12)
    # y(t) = (c + a t)/t at a=1, c=1, t=2
    assert y_of_t(ParallelB(a=1.0, c=1.0, b=-2.0),
                  2.0) == pytest.approx(1.5, abs=1e-12)


def test_integrate_autonomous_exponential():
    path = integrate_autonomous(lambda t: t, 1.0, (0.0, 1.0))
    assert path(1.0) == pytest.approx(math.e, abs=1e-12)


def test_integrate_autonomous_constant_slope():
    path = integrate_autonomous(lambda t: 0.0 * t + 1.0, 2.0, (0.0, 3.0))
    for u in (0.0, 1.2345, 3.0):
        assert path(u) == pytest.approx(2.0 + u, abs=1e-12)


def test_parallel_b_satisfies_implicit_relation():
    # f' = (c + a f)/f means f f' - a f - c = 0 along the path.
    spec = ParallelB(a=1.0, c=1.0, b=-2.0)
    gen = generate(spec, 1.0, (0.0, 1.0),
                   Directrix(compile_expression("0.5", "v"), (0.0, TWO_PI)))
    for u in u_samples(gen):
        fj = gen.surface.profile.f_jet(u)
        assert fj.f * fj.d1 - spec.a * fj.f - spec.c == pytest.approx(
            0.0, abs=1e-9)


# --- generation ---------------------------------------------------------------

def test_constant_gauss_positive_k_is_trig():
    gen = generate(ConstantGauss(K=1.0, alpha=1.0, beta=0.0), None,
                   (0.1, 1.4), UNIT_PHI)
    for u in u_samples(gen):
        fj = gen.surface.profile.f_jet(u)
        assert fj.f == pytest.approx(math.cos(u), abs=1e-12)
        assert profile_point(gen.surface.profile, u).K == pytest.approx(1.0, abs=1e-10)


def test_constant_gauss_negative_k_is_hyperbolic():
    gen = generate(ConstantGauss(K=-1.0, alpha=1.0, beta=1.0), None,
                   (0.1, 1.4), UNIT_PHI)
    for u in u_samples(gen):
        fj = gen.surface.profile.f_jet(u)
        assert fj.f == pytest.approx(math.cosh(u) + math.sinh(u), abs=1e-10)
        assert profile_point(gen.surface.profile, u).K == pytest.approx(-1.0, abs=1e-10)


def test_constant_gauss_decaying_exponential_keeps_its_digits():
    # alpha = -beta gives f = e^(-2u); the range ends where |f'| = 2 e^(-2u)
    # meets the floor, and f keeps its relative accuracy all the way there
    # (cosh - sinh would cancel to 0 long before)
    gen = generate(ConstantGauss(K=-4.0, alpha=1.0, beta=-1.0), None,
                   (0.0, 30.0), UNIT_PHI)
    assert gen.truncated
    assert gen.u_range[1] == pytest.approx(0.5 * math.log(2.0 / FPRIME_FLOOR), abs=1e-12)
    for u in u_samples(gen):
        assert gen.surface.profile.f_jet(u).f == pytest.approx(math.exp(-2.0 * u), rel=1e-12)


def test_constant_mean_truncates_at_blowup():
    # eps=+1 branch is only defined while f < b/(2a); the integrator must
    # stop there and report truncation.
    spec = ConstantMean(a=0.5, b=2.0, C=0.0, epsilon=1, branch=1)
    gen = generate(spec, 0.6, (0.0, 10.0), constant_kappa_directrix(2.0, (0.0, 0.3)))
    assert gen.truncated
    assert gen.u_range[1] < 10.0
    v = 0.15
    for u in u_samples(gen):
        assert invariants_at(gen.surface, u, v).H_norm == pytest.approx(
            0.5, abs=1e-8)


def test_constant_k_family():
    gen = generate(ConstantK(a=1.0, b=-1.0, c=0.5, branch=1), 0.5,
                   (0.0, 1.5), UNIT_PHI)
    v = math.pi
    for u in u_samples(gen):
        assert invariants_at(gen.surface, u, v).k == pytest.approx(-1.0, abs=1e-8)


def test_constant_k_profile_matches_closed_form():
    # y(t) = (1 - t^2)/2 at a=1, b=-1, c=0.5, so f = tanh(u/2 + atanh f0).
    spec = ConstantK(a=1.0, b=-1.0, c=0.5, branch=1)
    gen = generate(spec, 0.5, (0.0, 1.5), UNIT_PHI)
    assert gen.u_range == (0.0, 1.5) and not gen.truncated
    profile = gen.surface.profile
    nodes = [float(u) for u in
             integrate_autonomous(spec.y(), 0.5, (0.0, 1.5)).ts]
    between = [1.5 * i / 199 for i in range(200)]
    assert len(nodes) > 2
    for u in nodes + between:
        assert profile.f_jet(u).f == pytest.approx(
            math.tanh(0.5 * u + math.atanh(0.5)), abs=1e-12)


def test_chen_profile_matches_closed_form():
    # branch +1: 2 f f' = c f^2 + b^2/c, linear in f^2, so
    # f^2 = (f0^2 + b^2/c^2) e^(c u) - b^2/c^2 from u = 0
    spec = Chen(b=1.0, c=1.0, exponent_branch=1)
    gen = generate(spec, 1.5, (0.0, 1.5), constant_kappa_directrix(1.0, (0.0, 0.5)))
    assert gen.u_range == (0.0, 1.5) and not gen.truncated
    nodes = [float(u) for u in
             integrate_autonomous(spec.y(), 1.5, (0.0, 1.5)).ts]
    for u in nodes + [1.5 * i / 199 for i in range(200)]:
        assert gen.surface.profile.f_jet(u).f == pytest.approx(
            math.sqrt((1.5**2 + 1.0) * math.exp(u) - 1.0), rel=1e-12)


# Chen and constant-k members on each form of their closed profile, with
# f0, the u range and whether the range is cut short
SOLVED = [
    (Chen(b=2.0, c=0.5, exponent_branch=-1), 1.5, (0.0, 1.5), True),  # |f'| reaches 1e3
    (Chen(b=1.0, c=1.0, exponent_branch=1), 0.6, (0.0, 1.5), False),
    (Chen(b=1.0, c=1.0, exponent_branch=1), 1.5, (0.0, 1.5), False),
    (ConstantK(a=1.0, b=-1.0, c=0.5, branch=-1), 0.5, (0.0, 1.5), False),  # c alpha > 0: tan
    (ConstantK(a=1.0, b=-1.0, c=0.5, branch=1), 0.5, (0.0, 1.5), False),   # tanh, below rho
    (ConstantK(a=1.0, b=-1.0, c=0.5, branch=1), 1.5, (0.0, 1.5), False),   # coth, above rho
    (ConstantK(a=1.0, b=1.0, c=-0.5, branch=1), 1.5, (0.0, 2.0), True),    # coth, f' reaches 1e3
    (ConstantK(a=1.0, b=1.0, c=0.0, branch=1), 1.5, (0.0, 2.0), True),     # c = 0, f' reaches 1e3
    (ConstantK(a=1.0, b=1.0, c=0.0, branch=-1), 1.5, (0.0, 2.0), False),
]


def generate_solved(spec, f0, u_range):
    return generate(spec, f0, u_range, constant_kappa_directrix(spec.b, (0.0, 0.3)))


@pytest.mark.parametrize("spec, f0, u_range, truncates", SOLVED)
def test_closed_form_profile_matches_the_integrated_one(spec, f0, u_range, truncates):
    gen = generate_solved(spec, f0, u_range)
    path = integrate_autonomous(spec.y(), f0, u_range)
    assert gen.f_source == "closed-form"
    assert gen.truncated is path.truncated is truncates
    # the integrator ends within its step floor, 1e-6 of the span, of the crossing
    assert abs(gen.u_range[1] - path.t1) <= 1e-6 * (u_range[1] - u_range[0])
    profile = gen.surface.profile
    # at the integrator's nodes: its 4th-order dense output between them
    # misses f by up to 3e-12, relative
    for u in [float(t) for t in path.ts if t <= gen.u_range[1]]:
        assert profile.f_jet(u).f == pytest.approx(path(u), rel=1e-12)
        assert g_from_f(profile, u) == pytest.approx(path.g(u, G_TOL), abs=1e-12)
    for u in sample_grid(gen.u_range, PROFILE_SAMPLES):
        assert spec.residual(profile_point(profile, u)) <= 1e-12


def test_closed_form_families_integrate_nothing(monkeypatch):
    def integrate(*args):
        raise AssertionError("integrated")
    monkeypatch.setattr(families, "integrate_autonomous", integrate)
    monkeypatch.setattr(odeint, "dormand_prince", integrate)
    monkeypatch.setattr(odeint, "quadrature_path", integrate)
    for spec, f0, u_range, _ in SOLVED:
        gen = generate_solved(spec, f0, u_range)
        for u in sample_grid(gen.u_range, 5):
            g_from_f(gen.surface.profile, u)


@pytest.mark.parametrize("f0", [None, math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("spec", [Chen(b=1.0, c=1.0, exponent_branch=1),
                                  ConstantK(a=1.0, b=-1.0, c=0.5, branch=1)])
def test_closed_form_families_refuse_f0_that_is_not_finite_and_positive(spec, f0):
    with pytest.raises(SpecMismatchError, match="finite starting value f0 > 0"):
        generate_solved(spec, f0, (0.0, 1.0))


@pytest.mark.parametrize("spec, f0", [
    (ConstantK(a=1.0, b=-1.0, c=0.5, branch=1), 1.0),   # y = (1 - f^2) / 2
    (Chen(b=1e-10, c=1.0, exponent_branch=1), 1e-10)])  # |y| >= |b| = 1e-10
def test_closed_form_families_refuse_a_flat_start(spec, f0):
    with pytest.raises(ProfileInvariantError, match="f' = 0 at the start"):
        generate_solved(spec, f0, (0.0, 1.0))


@pytest.mark.parametrize("spec, u1", [
    (ConstantMean(a=0.5, b=2.0, C=0.0, epsilon=1, branch=1), 1.0),  # truncates
    (ConstantMean(a=0.5, b=2.0, C=0.3, epsilon=1, branch=-1), 0.5),
    (ConstantMean(a=0.5, b=1.0, C=0.0, epsilon=-1, branch=1), 0.6)])
def test_constant_mean_profile_matches_quadrature_of_one_over_y(spec, u1):
    # f' = y(f) gives u - u0 = integral from f0 to f(u) of dt / y(t); y is
    # written out again here in mpmath, apart from the spec's y()
    mpmath = pytest.importorskip("mpmath")
    gen = generate(spec, 0.6, (0.0, u1),
                   constant_kappa_directrix(spec.b, (0.0, 0.3)))
    a, b, C, s = (mpmath.mpf(x) for x in (spec.a, spec.b, spec.C, spec.branch))

    def y(t):
        if spec.epsilon == 1:
            root = mpmath.sqrt(b * b - 4 * a * a * t * t)
            tail = mpmath.asin(2 * a * t / abs(b))
        else:
            root = mpmath.sqrt(b * b + 4 * a * a * t * t)
            tail = mpmath.log(abs(2 * a * t + root))
        return (C + s * t * root / 2 + s * b * b / (4 * a) * tail) / t

    u0, end = gen.u_range
    with mpmath.workdps(30):
        for i in range(11):
            u = u0 + (end - u0) * i / 10
            f = gen.surface.profile.f_jet(u).f
            assert float(mpmath.quad(lambda t: 1 / y(t), [0.6, f])) == \
                pytest.approx(u - u0, abs=1e-12)


def test_chen_family_lambda_vanishes():
    directrix = constant_kappa_directrix(1.0, (0.0, 0.5))
    gen = generate(Chen(b=1.0, c=1.0, exponent_branch=1), 1.5,
                   (0.0, 1.5), directrix)
    v = 0.25
    for u in u_samples(gen):
        assert invariants_at(gen.surface, u, v).lam == pytest.approx(
            0.0, abs=1e-8)


def test_parallel_a_closed_form_and_betas():
    gen = generate(ParallelA(c=1.0, d=1.0, a=0.0, sign=1), None,
                   (0.0, 3.0), UNIT_PHI)
    profile = gen.surface.profile
    assert profile.f_jet(0.0).f == pytest.approx(1.0, abs=1e-12)
    assert g_from_f(profile, 0.0) == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert g_from_f(profile, 3.0) == pytest.approx(-16.0 / 3.0, abs=1e-9)
    v = 1.0
    for u in u_samples(gen):
        r = invariants_at(gen.surface, u, v)
        assert r.beta1 == pytest.approx(0.0, abs=1e-10)
        assert r.beta2 == pytest.approx(0.0, abs=1e-10)


def test_parallel_a_negative_sign_rejected():
    with pytest.raises(SpecMismatchError):
        generate(ParallelA(c=1.0, d=1.0, a=0.0, sign=-1), None,
                 (0.0, 3.0), UNIT_PHI)


def test_defining_residuals_small_along_generated_profiles():
    cases = [
        (ConstantMean(a=0.5, b=2.0, C=0.0, epsilon=1, branch=1), 0.6,
         constant_kappa_directrix(2.0, (0.0, 0.3))),
        (ConstantK(a=1.0, b=-1.0, c=0.5, branch=-1), 0.5, UNIT_PHI),
        (Chen(b=2.0, c=0.5, exponent_branch=-1), 1.5,
         constant_kappa_directrix(2.0, (0.0, 0.3))),
        (ParallelB(a=2.0, c=-0.5, b=-1.0), 1.0, UNIT_PHI),
    ]
    for spec, f0, directrix in cases:
        gen = generate(spec, f0, (0.0, 1.0), directrix)
        for u in u_samples(gen):
            assert spec.residual(profile_point(gen.surface.profile, u)) <= 1e-8


# --- directrix construction ---------------------------------------------------

def test_constant_kappa_directrix_negative_b_is_constant_phi():
    d = constant_kappa_directrix(-0.5, (0.0, TWO_PI))
    for v in (0.0, 1.0, 4.0):
        assert d.phi_jet(v).f == pytest.approx(2.0, abs=1e-12)
        assert directrix_point(d, v).kappa == pytest.approx(-0.5, abs=1e-12)


def test_constant_kappa_directrix_positive_b_solves_ivp():
    d = constant_kappa_directrix(1.5, (0.0, 0.4))
    v0, v1 = d.domain
    for i in range(9):
        v = v0 + (v1 - v0) * (i + 0.5) / 9.0
        assert directrix_point(d, v).kappa == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("v0", [0.0, 0.3, -0.2])
@pytest.mark.parametrize("b", [0.5, 1.0, 1.5, 2.0, 5.0])
def test_constant_kappa_directrix_positive_b_against_mpmath(b, v0):
    # the IVP phi(v0) = 1, phi'(v0) = 0 of phi phi'' - 2 phi'^2 - phi^2 =
    # b (phi'^2 + phi^2)^(3/2), solved by mpmath's Taylor-series integrator
    mpmath = pytest.importorskip("mpmath")
    d = constant_kappa_directrix(b, (v0, v0 + 0.4))
    lo, hi = d.domain
    assert lo == v0
    # b <= 1.5 stays short of the tangent ray at v0 + arcsin(1/(b+1))
    assert (hi == v0 + 0.4) == (b <= 1.5)

    def rhs(v, state):
        p, q = state
        return [q, (2 * q * q + p * p + b * (q * q + p * p) ** 1.5) / p]

    with mpmath.workdps(20):
        exact = mpmath.odefun(rhs, v0, [mpmath.mpf(1), mpmath.mpf(0)])
        for i in range(9):
            v = lo + (hi - lo) * (i + 0.5) / 9.0
            p, q = (float(c) for c in exact(v))
            phi = d.phi_jet(v)
            assert phi.f == pytest.approx(p, abs=1e-11)
            assert phi.d1 == pytest.approx(q, abs=1e-11)


# realized ends of the Dormand-Prince solution of the directrix IVP that the
# closed form replaced, over (0, 3)
ODE_ENDS = {0.5: 0.7297254269014076, 1.0: 0.5235979085138344,
            2.0: 0.3398365559765359, 5.0: 0.167447960800777}


@pytest.mark.parametrize("b", sorted(ODE_ENDS))
def test_constant_kappa_directrix_exact_end(b):
    ends = set()
    for v1 in (1.0, 1.5, 3.0, TWO_PI):
        d = constant_kappa_directrix(b, (0.0, v1))
        end = d.domain[1]
        ends.add(end)
        assert abs(jet_eval(d.phi, end).d1) <= families._F_BOUND
        after = jet_eval(d.phi, math.nextafter(end, math.inf))
        assert abs(after.d1) > families._F_BOUND
    assert len(ends) == 1
    assert end == pytest.approx(ODE_ENDS[b], abs=1e-8)
    assert end < math.asin(1.0 / (b + 1.0))


def test_constant_kappa_directrix_work(monkeypatch):
    calls = []
    monkeypatch.setattr(odeint, "dormand_prince",
                        lambda *args: calls.append(args))
    d = constant_kappa_directrix(1.0, (0.0, 0.5))
    assert d.domain == (0.0, 0.5)
    assert directrix_point(d, 0.25).kappa == pytest.approx(1.0, abs=1e-12)
    assert calls == []


# the integrated families: (spec, f0, u range) of each sign of epsilon
ODE_SPECS = [
    (ConstantMean(a=0.5, b=2.0, C=0.0, epsilon=1, branch=1), 0.6, (0.0, 1.0)),
    (ConstantMean(a=0.5, b=1.0, C=0.0, epsilon=-1, branch=1), 0.6, (0.0, 0.6)),
    (ParallelB(a=1.0, c=1.0, b=-2.0), 1.0, (0.0, 0.5)),
]


def generate_ode(spec, f0, u_range):
    return generate(spec, f0, u_range, constant_kappa_directrix(spec.b, (0.0, 0.3)))


def test_generate_raises_when_residual_exceeds_tolerance(monkeypatch):
    # the integrated families check the path's summed error estimate of f
    # against RESIDUAL_TOL
    monkeypatch.setattr(families, "RESIDUAL_TOL", -1.0)
    for spec, f0, u_range in ODE_SPECS:
        with pytest.raises(ProfileInvariantError, match="summed error estimate"):
            generate_ode(spec, f0, u_range)


@pytest.mark.parametrize("spec, f0, u_range", ODE_SPECS)
def test_generate_builds_no_profile_record(spec, f0, u_range):
    assert generate_ode(spec, f0, u_range).surface.profile._points == {}


@pytest.mark.parametrize("spec, f0, u_range", ODE_SPECS)
def test_the_path_keeps_the_summed_error_estimate_of_its_steps(monkeypatch, spec, f0,
                                                               u_range):
    paths, steps = [], []
    dormand_prince, run = odeint.dormand_prince, odeint._steps

    def kept(*args):
        paths.append(dormand_prince(*args))
        return paths[-1]

    def stepped(*args):
        steps.append(run(*args))
        return steps[-1]
    monkeypatch.setattr(odeint, "dormand_prince", kept)
    monkeypatch.setattr(odeint, "_steps", stepped)
    generate_ode(spec, f0, u_range)
    (path,), ((_, _, yerr, _, _, _),) = paths, steps
    assert path.yerr == yerr
    assert 0.0 < path.yerr[-1] == yerr[-1] <= 1e-11


RELATION_TOL = 1e-7   # ten times tighter than RESIDUAL_TOL
ranges = st.tuples(st.floats(-1.0, 1.0), st.floats(0.05, 2.0)).map(
    lambda p: (p[0], p[0] + p[1]))
signs = st.sampled_from([1, -1])


def nonzero(lo, hi):
    return st.tuples(st.floats(lo, hi), signs).map(lambda p: p[0] * p[1])


def _relation_holds(spec, f0, u_range):
    """Generate spec from f0 over u_range; a MeridianError refuses it.
    Otherwise the profile records on the PROFILE_SAMPLES rows must exist,
    and the defining residual on them stay within RELATION_TOL."""
    try:
        gen = generate_ode(spec, f0, u_range)
    except MeridianError:
        return
    profile = gen.surface.profile
    for u in sample_grid(gen.u_range, PROFILE_SAMPLES):
        assert spec.residual(profile_point(profile, u)) <= RELATION_TOL, u


@settings(max_examples=150)
@given(signs, signs, nonzero(0.1, 2.0), nonzero(0.5, 4.0), st.floats(-1.0, 1.0),
       st.floats(0.05, 2.0), ranges)
def test_constant_mean_keeps_its_relation_across_its_box(eps, branch, a, b, C, f0,
                                                         u_range):
    _relation_holds(ConstantMean(a=a, b=b, C=C, epsilon=eps, branch=branch), f0,
                    u_range)


@settings(max_examples=100)
@given(nonzero(0.1, 3.0), st.floats(-2.0, 2.0), st.floats(0.05, 2.0), ranges)
def test_parallel_b_keeps_its_relation_across_its_box(a, c, f0, u_range):
    _relation_holds(ParallelB(a=a, c=c, b=-1.0), f0, u_range)


# magnitudes from 1e-300 to 1e300 at both signs
magnitudes = st.tuples(st.floats(-300.0, 300.0), signs).map(lambda p: p[1] * 10.0 ** p[0])
closed_form_specs = st.one_of(
    st.builds(ConstantGauss, K=magnitudes, alpha=magnitudes, beta=magnitudes),
    st.builds(ParallelA, c=magnitudes, d=magnitudes, a=magnitudes, sign=signs),
    st.builds(ConstantK, a=magnitudes, b=magnitudes, c=magnitudes, branch=signs),
    st.builds(Chen, b=magnitudes, c=magnitudes, exponent_branch=signs))


@settings(max_examples=400)
@given(closed_form_specs, magnitudes, magnitudes, magnitudes)
@example(ParallelA(c=1e200, d=1e210), None, 0.0, 1.0)
@example(ConstantGauss(K=1e-300, alpha=1.0, beta=1.0), None, 0.0, 1.0)
@example(ConstantGauss(K=1e-300, alpha=1e-300, beta=1e-300), None, -1.0, 1.0)
@example(Chen(b=1e-300, c=1e5, exponent_branch=1), 0.5, 1e5, 1.0)
@example(Chen(b=-1.0, c=-2.0, exponent_branch=1), 1e300, 1e-200, 1.0)
@example(Chen(b=1e-300, c=1e-300, exponent_branch=-1), 1e-300, 0.1, 1.0)
@example(ConstantK(a=-1e150, b=1e-300, c=1e-150, branch=-1), 0.5, 0.1, 1.0)
@example(ConstantK(a=-1e150, b=1e5, c=1e-300, branch=1), 1e300, 1e5, 1.0)
@example(ConstantGauss(K=1.0, alpha=-1e150, beta=1e5), None, 1e5, 1.0)
# r u overflows to inf at the requested end, where the jet's sin raises
@example(ConstantGauss(K=1e50, alpha=-1.0, beta=-1.0), None, -100.0, 1e300)
def test_closed_forms_raise_only_meridian_errors_across_their_boxes(spec, f0, u0, span):
    """generate either raises a MeridianError or gives a profile whose
    records and g read 5 rows, each raising a MeridianError at worst."""
    try:
        if spec.kappa_constant is None:
            f0, directrix = None, UNIT_PHI
        else:
            directrix = constant_kappa_directrix(spec.b, (0.0, 0.3))
        gen = generate(spec, f0, (u0, u0 + abs(span)), directrix)
    except MeridianError:
        return
    profile = gen.surface.profile
    for u in sample_grid(gen.u_range, 5):
        for read in (profile_point, g_from_f):
            try:
                read(profile, u)
            except MeridianError:
                pass


@pytest.mark.parametrize("spec", [ConstantGauss(K=1.0, alpha=1.0, beta=0.0),
                                  ParallelA(c=1.0, d=1.0, a=0.0, sign=1)])
def test_closed_form_specs_take_no_f0(spec):
    with pytest.raises(SpecMismatchError, match="takes no f0"):
        generate(spec, 1.0, (0.1, 0.5), UNIT_PHI)


def test_generate_rejects_wrong_directrix_curvature():
    # b = -2 demands kappa = -2, but the unit directrix has kappa = -1.
    with pytest.raises(SpecMismatchError):
        generate(ParallelB(a=1.0, c=1.0, b=-2.0), 1.0, (0.0, 1.0), UNIT_PHI)
