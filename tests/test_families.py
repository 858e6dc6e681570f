"""Classified families: profile ODEs, generation, and defining properties."""

import math

import pytest

from meridian4 import families
from meridian4.errors import ProfileInvariantError, SpecMismatchError
from meridian4.expressions import compile_expression
from meridian4.families import (Chen, ConstantGauss, ConstantK, ConstantMean,
                                ParallelA, ParallelB, constant_kappa_directrix,
                                defining_residual, generate,
                                integrate_autonomous, y_function)
from meridian4.jets import jet_eval
from meridian4.invariants import (eight_invariants, gauss_curvature,
                                  invariant_k, mean_curvature)
from meridian4.profile import FPRIME_FLOOR, Directrix, kappa

TWO_PI = 2.0 * math.pi
UNIT_PHI = Directrix(compile_expression("1", "v"), (0.0, TWO_PI))


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
        return jet_eval(y_function(spec), t).f

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
        assert gauss_curvature(gen.surface, u) == pytest.approx(1.0, abs=1e-10)


def test_constant_gauss_negative_k_is_hyperbolic():
    gen = generate(ConstantGauss(K=-1.0, alpha=1.0, beta=1.0), None,
                   (0.1, 1.4), UNIT_PHI)
    for u in u_samples(gen):
        fj = gen.surface.profile.f_jet(u)
        assert fj.f == pytest.approx(math.cosh(u) + math.sinh(u), abs=1e-10)
        assert gauss_curvature(gen.surface, u) == pytest.approx(-1.0, abs=1e-10)


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
        assert mean_curvature(gen.surface, u, v)[2] == pytest.approx(
            0.5, abs=1e-8)


def test_constant_k_family():
    gen = generate(ConstantK(a=1.0, b=-1.0, c=0.5, branch=1), 0.5,
                   (0.0, 1.5), UNIT_PHI)
    v = math.pi
    for u in u_samples(gen):
        assert invariant_k(gen.surface, u, v) == pytest.approx(-1.0, abs=1e-8)


def test_constant_k_profile_matches_closed_form():
    # y(t) = (1 - t^2)/2 at a=1, b=-1, c=0.5, so f = tanh(u/2 + atanh f0).
    spec = ConstantK(a=1.0, b=-1.0, c=0.5, branch=1)
    gen = generate(spec, 0.5, (0.0, 1.5), UNIT_PHI)
    assert gen.u_range == (0.0, 1.5) and not gen.truncated
    profile = gen.surface.profile
    nodes = [float(u) for u in
             integrate_autonomous(y_function(spec), 0.5, (0.0, 1.5)).ts]
    between = [1.5 * i / 199 for i in range(200)]
    assert len(nodes) > 2
    for u in nodes + between:
        assert profile.f_jet(u).f == pytest.approx(
            math.tanh(0.5 * u + math.atanh(0.5)), abs=1e-12)


def test_chen_family_lambda_vanishes():
    directrix = constant_kappa_directrix(1.0, (0.0, 0.5))
    gen = generate(Chen(b=1.0, c=1.0, exponent_branch=1), 1.5,
                   (0.0, 1.5), directrix)
    v = 0.25
    for u in u_samples(gen):
        assert eight_invariants(gen.surface, u, v).lam == pytest.approx(
            0.0, abs=1e-8)


def test_parallel_a_closed_form_and_betas():
    gen = generate(ParallelA(c=1.0, d=1.0, a=0.0, sign=1), None,
                   (0.0, 3.0), UNIT_PHI)
    profile = gen.surface.profile
    assert profile.f_jet(0.0).f == pytest.approx(1.0, abs=1e-12)
    assert profile.g(0.0) == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert profile.g(3.0) == pytest.approx(-16.0 / 3.0, abs=1e-9)
    v = 1.0
    for u in u_samples(gen):
        r = eight_invariants(gen.surface, u, v)
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
            assert defining_residual(spec, gen.surface.profile, u) <= 1e-8


# --- directrix construction ---------------------------------------------------

def test_constant_kappa_directrix_negative_b_is_constant_phi():
    d = constant_kappa_directrix(-0.5, (0.0, TWO_PI))
    for v in (0.0, 1.0, 4.0):
        assert d.phi_jet(v).f == pytest.approx(2.0, abs=1e-12)
        assert kappa(d, v) == pytest.approx(-0.5, abs=1e-12)


def test_constant_kappa_directrix_positive_b_solves_ivp():
    d = constant_kappa_directrix(1.5, (0.0, 0.4))
    v0, v1 = d.domain
    for i in range(9):
        v = v0 + (v1 - v0) * (i + 0.5) / 9.0
        assert kappa(d, v) == pytest.approx(1.5, abs=1e-12)


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
    monkeypatch.setattr(families, "dormand_prince",
                        lambda *args: calls.append(args))
    d = constant_kappa_directrix(1.0, (0.0, 0.5))
    assert d.domain == (0.0, 0.5)
    assert kappa(d, 0.25) == pytest.approx(1.0, abs=1e-12)
    assert calls == []


def test_generate_raises_when_residual_exceeds_tolerance(monkeypatch):
    monkeypatch.setattr(families, "RESIDUAL_TOL", -1.0)
    with pytest.raises(ProfileInvariantError, match="defining residual"):
        generate(ConstantK(a=1.0, b=-1.0, c=0.5, branch=1), 0.5,
                 (0.0, 1.5), UNIT_PHI)


def test_generate_rejects_wrong_directrix_curvature():
    # b = -2 demands kappa = -2, but the unit directrix has kappa = -1.
    with pytest.raises(SpecMismatchError):
        generate(ParallelB(a=1.0, c=1.0, b=-2.0), 1.0, (0.0, 1.0), UNIT_PHI)
