"""Adaptive Simpson quadrature and Dormand-Prince 5(4) integration with
dense output."""

import math

import pytest

from meridian4.quadrature import adaptive_simpson
from meridian4.errors import DomainError
from meridian4.odeint import dormand_prince


def test_simpson_polynomial_is_near_exact():
    assert adaptive_simpson(lambda x: x**2, 0.0, 1.0) == pytest.approx(
        1.0 / 3.0, abs=1e-12)


def test_simpson_sine():
    assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(
        2.0, abs=1e-10)


def test_simpson_decaying_exponential():
    val = adaptive_simpson(lambda x: math.exp(-x), 0.0, 5.0)
    assert val == pytest.approx(1.0 - math.exp(-5.0), abs=1e-10)


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


def test_rk4_logistic():
    # y' = y(1-y), y(0) = 0.5 -> y(t) = 1/(1+e^-t)
    path = dormand_prince(lambda y: y * (1.0 - y), 0.0, 2.0, 0.5)
    assert path(2.0) == pytest.approx(
        1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)


def test_rk4_queried_outside_range_raises():
    path = dormand_prince(lambda y: y, 0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        path(2.0)
