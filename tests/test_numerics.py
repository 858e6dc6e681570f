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
    path = dormand_prince(lambda y: [y[0]], 0.0, 1.0, [1.0])
    assert path(1.0)[0] == pytest.approx(math.e, abs=1e-12)


def test_rk4_dense_output_between_knots():
    path = dormand_prince(lambda y: [y[0]], 0.0, 1.0, [1.0])
    for t in (0.12345, 0.5055, 0.987654):
        assert not any(t == node for node in path.ts)
        assert path(t)[0] == pytest.approx(math.exp(t), abs=1e-12)


def test_rk4_stop_condition_truncates():
    # rhs leaving its domain once y > 5 ends the path at the last accepted
    # node, next to t = ln 5.
    def rhs(y):
        if y[0] > 5.0:
            raise DomainError("y > 5", t=y[0])
        return [y[0]]

    path = dormand_prince(rhs, 0.0, 10.0, [1.0])
    assert path.truncated
    assert path.t1 < 10.0
    assert path(path.t1)[0] <= 5.0
    assert path.t1 == pytest.approx(math.log(5.0), abs=1e-3)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_dormand_prince_non_finite_stage_truncates(bad):
    # y0' = y0 (y0 = e^t), y1' = 1 until y0 > 5, then a non-finite slope for
    # y1 only. Python's max() would skip a NaN error term that is not first;
    # the step must be rejected anyway and the path end next to t = ln 5.
    def rhs(y):
        return [y[0], 1.0 if y[0] <= 5.0 else bad]

    path = dormand_prince(rhs, 0.0, 10.0, [1.0, 0.0])
    assert path.truncated
    assert path.t1 == pytest.approx(math.log(5.0), abs=1e-3)
    assert all(math.isfinite(c) for step in path.coef for r in step for c in r)
    for t in path.ts:
        assert all(math.isfinite(c) for c in path(t))
    assert path(path.t1)[1] == pytest.approx(path.t1, abs=1e-12)


def test_rk4_logistic():
    # y' = y(1-y), y(0) = 0.5 -> y(t) = 1/(1+e^-t)
    path = dormand_prince(lambda y: [y[0] * (1.0 - y[0])], 0.0, 2.0, [0.5])
    assert path(2.0)[0] == pytest.approx(
        1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)


def test_rk4_queried_outside_range_raises():
    path = dormand_prince(lambda y: [y[0]], 0.0, 1.0, [1.0])
    with pytest.raises(DomainError):
        path(2.0)
