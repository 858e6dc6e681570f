"""Dormand-Prince 5(4) integration with dense output: of the autonomous
profile equation, and of a quadrature whose own error estimate steers it."""

import hashlib
import itertools
import json
import math
import time
from pathlib import Path

import pytest

from meridian4 import cli, odeint
from meridian4.errors import DomainError, QuadratureLimitError
from meridian4.expressions import compile_expression
from meridian4.families import integrate_autonomous
from meridian4.jets import jcos, jet_eval
from meridian4.odeint import dormand_prince, quadrature_path
from meridian4.profile import G_TOL, ProfileCurve, g_from_f

DIGESTS = Path(__file__).parent / "data" / "dormand_prince_digests.json"

# the five f' = y(f) specs of the family_sweep benchmark at its seed-0 ranges:
# (spec, f0, u range). constant-k and chen generate in closed form; their
# y() is integrated here only to pin dormand_prince on five right-hand sides
ODE_PATHS = {
    "constant-mean-eps+": ("constant-mean a=0.5 b=2 C=0 eps=+ branch=+", 0.6, (0.0, 1.0)),
    "constant-mean-eps-": ("constant-mean a=0.5 b=1 C=0 eps=- branch=+", 0.6, (0.0, 0.6)),
    "constant-k": ("constant-k a=1 b=-1 c=0.5 branch=+", 0.5, (0.0, 0.5)),
    "chen": ("chen b=1 c=1 branch=+", 1.5, (0.0, 0.5)),
    "parallel-b": ("parallel-b a=1 c=1 b=-2", 1.0, (0.0, 0.5)),
}
# g' = -1/(2 f') of a direct profile f: (f, u range)
QUADRATURE_PATHS = {
    "sqrt(u+1)": ("sqrt(u+1)", (0.0, 3.0)),
    "cos(u)+2": ("cos(u)+2", (0.1, 3.1)),
}


def quadrature(F, a, b):
    path, stop = quadrature_path(F, a, b, 1e-10)
    assert stop is None and path.t1 == b
    return path.g(b, 1e-10)


# the integrals of the adaptive-Simpson tests whose ids these keep, now
# through quadrature_path, to the same tolerances
def test_simpson_polynomial_is_near_exact():
    assert quadrature(lambda x: x**2, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_simpson_sine():
    assert quadrature(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)


def test_simpson_decaying_exponential():
    val = quadrature(lambda x: math.exp(-x), 0.0, 5.0)
    assert val == pytest.approx(1.0 - math.exp(-5.0), abs=1e-10)


def test_quadrature_stopped_by_the_step_floor_names_its_t():
    # f' = -sin u vanishes at pi: g's steps shrink towards it until they
    # reach the floor, 1e-6 of the span. A u past that end whose own checks
    # pass (one ulp of u moves g by under 1e-10 there) gets the error that
    # ended the pass.
    p = ProfileCurve(lambda u: jcos(u) + 2.0, (0.1, 3.5))
    g_from_f(p, 3.1)
    path, stop = p._pass
    u = math.pi - 3e-6
    assert path.truncated and path.t1 < u
    for _ in range(2):
        with pytest.raises(QuadratureLimitError,
                           match=f"below its floor, .* at t = {path.t1}$"):
            g_from_f(p, u)


@pytest.mark.parametrize("u1", [0.785391, 0.7853])
def test_quadrature_next_to_an_f_prime_zero_returns_within_a_second(tmp_path, u1):
    # f = cos u + sin u + 2: f' = cos u - sin u vanishes at pi/4, 7.2e-6 past
    # 0.785391, where one ulp of u still moves g by only 6e-12
    start = time.perf_counter()
    code = cli.main(["mesh", "--spec", "direct f=cos(u)+sin(u)+2 phi=1",
                     "--u", f"0:{u1}", "--v", "0:1", "--grid", "2x2",
                     "--out", str(tmp_path / "p.json")])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    mpmath = pytest.importorskip("mpmath")
    p = ProfileCurve(compile_expression("cos(u)+sin(u)+2"), (0.0, u1))
    with mpmath.workdps(30):
        def G(t):
            return mpmath.log(abs(mpmath.tan((mpmath.mpf(t) - mpmath.pi / 4) / 2)))
        expected = (G(u1) - G(0.0)) / (2 * mpmath.sqrt(2))
    assert g_from_f(p, u1) == pytest.approx(float(expected), abs=1e-10)


def test_invariants_of_a_direct_spec_run_no_pass(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("quadrature_path called")

    monkeypatch.setattr(odeint, "quadrature_path", fail)
    code = cli.main(["invariants", "--spec", "direct f=sqrt(u+1) phi=1", "--u", "0:3",
                     "--v", "0:6", "--grid", "4x3", "--out", str(tmp_path / "i.csv")])
    assert code == 0


def test_rk4_exponential_growth():
    path = dormand_prince(lambda y: y, 0.0, 1.0, 1.0)
    assert path(1.0) == pytest.approx(math.e, abs=1e-12)


def test_rk4_dense_output_between_knots():
    path = dormand_prince(lambda y: y, 0.0, 1.0, 1.0)
    for t in (0.12345, 0.5055, 0.987654):
        assert not any(t == node for node in path.ts)
        assert path(t) == pytest.approx(math.exp(t), abs=1e-12)


def test_rk4_stop_condition_truncates():
    # rhs leaving its domain once y > 5 ends the path at the last accepted
    # node, next to t = ln 5.
    def rhs(y):
        if y > 5.0:
            raise DomainError("y > 5", t=y)
        return y

    path = dormand_prince(rhs, 0.0, 10.0, 1.0)
    assert path.truncated
    assert path.t1 < 10.0
    assert path(path.t1) <= 5.0
    assert path.t1 == pytest.approx(math.log(5.0), abs=1e-3)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_dormand_prince_non_finite_stage_truncates(bad):
    # y' = y (y = e^t) until y > 5, then a non-finite slope: every step
    # past that is rejected and the path ends next to t = ln 5.
    def rhs(y):
        return y if y <= 5.0 else bad

    path = dormand_prince(rhs, 0.0, 10.0, 1.0)
    assert path.truncated
    assert path.t1 == pytest.approx(math.log(5.0), abs=1e-3)
    assert all(math.isfinite(c) for step in path.coef for c in step)
    for t in path.ts:
        assert math.isfinite(path(t))
    assert path(path.t1) == pytest.approx(math.exp(path.t1), rel=1e-12)


def _digest(path):
    text = repr((path.ts, path.coef, path.gcoef, path.gerr))
    return hashlib.sha256(text.encode()).hexdigest()


def _path_digests():
    out = {}
    for name, (text, f0, u_range) in ODE_PATHS.items():
        spec, _ = cli.parse_family_spec(text)
        out[name] = _digest(integrate_autonomous(spec.y(), f0, u_range))
    for name, (text, (u0, u1)) in QUADRATURE_PATHS.items():
        f = compile_expression(text, "u")
        path, stop = quadrature_path(lambda t: -0.5 / jet_eval(f, t).d1, u0, u1, G_TOL)
        assert stop is None
        out[name] = _digest(path)
    return out


def test_dormand_prince_paths_are_bit_identical_to_the_pinned_digests():
    # every node, extension coefficient and error sum, to the last bit: the
    # step is a fixed sequence of float operations, and a change to its
    # order or to a weight moves these digests
    assert _path_digests() == json.loads(DIGESTS.read_text())


def test_dormand_prince_nan_in_a_zero_weight_stage_truncates():
    # y' = 1 (y = 1 + t), but stage 2 of a step gives NaN where its point,
    # y + h/5, lies past 5. Every other stage stays finite, and stage 2 has
    # weight 0.0 in the 5th-order row, in the error estimate and in the
    # dense output: its NaN must still reach the error estimate, so each
    # such step is rejected, and the path ends at the first node from which
    # no step down to the floor (1e-6 of the span) keeps that point below 5.
    calls = itertools.count()

    def rhs(y):
        # call 0 is the first step's stage 1; each attempt then evaluates
        # stages 2..7 in order
        return math.nan if next(calls) % 6 == 1 and y > 5.0 else 1.0

    path = dormand_prince(rhs, 0.0, 10.0, 1.0)
    assert path.truncated
    assert path.t1 < 10.0 and path(path.t1) >= 5.0 - 1e-5 / 5
    assert all(math.isfinite(c) for step in path.coef + path.gcoef for c in step)


def test_rk4_logistic():
    # y' = y(1-y), y(0) = 0.5 -> y(t) = 1/(1+e^-t)
    path = dormand_prince(lambda y: y * (1.0 - y), 0.0, 2.0, 0.5)
    assert path(2.0) == pytest.approx(
        1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)


def test_rk4_queried_outside_range_raises():
    path = dormand_prince(lambda y: y, 0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        path(2.0)
