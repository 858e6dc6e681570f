"""Third-order jets: arithmetic, composition, and elementary functions."""

import math
import operator

import pytest
from hypothesis import given, settings, strategies as st

from meridian4.jets import (Jet, constant, jcos, jet_eval,
                            jet_function_from_derivs, jexp, jlog, jpow, jsec,
                            jsin, jsqrt, jtanh, variable)

coeff = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
# signed zeros, infinities, nan, subnormals and the ends of the float range
edge = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                        1e-310, -1e-310, 1e308, -1e308])


def poly_jet(coeffs, t):
    """Jet of a cubic polynomial c0 + c1 t + c2 t^2 + c3 t^3 at t."""
    c0, c1, c2, c3 = coeffs
    return Jet(
        c0 + c1 * t + c2 * t**2 + c3 * t**3,
        c1 + 2 * c2 * t + 3 * c3 * t**2,
        2 * c2 + 6 * c3 * t,
        6 * c3,
    )


def test_variable_and_constant():
    t = variable(2.5)
    assert (t.f, t.d1, t.d2, t.d3) == (2.5, 1.0, 0.0, 0.0)
    c = constant(7.0)
    assert (c.f, c.d1, c.d2, c.d3) == (7.0, 0.0, 0.0, 0.0)


def test_cosine_jet_at_zero():
    j = jcos(variable(0.0))
    assert (j.f, j.d1, j.d2, j.d3) == pytest.approx((1.0, 0.0, -1.0, 0.0))


def test_sqrt_shifted_jet_at_zero():
    j = jsqrt(variable(0.0) + 1.0)
    assert (j.f, j.d1, j.d2, j.d3) == pytest.approx((1.0, 0.5, -0.25, 0.375))


@given(st.tuples(coeff, coeff, coeff, coeff),
       st.tuples(coeff, coeff, coeff, coeff),
       st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
def test_product_rule(p, q, t):
    """Jet multiplication agrees with the analytic derivatives of p*q."""
    jp, jq = poly_jet(p, t), poly_jet(q, t)
    prod = jp * jq
    assert prod.f == pytest.approx(jp.f * jq.f, abs=1e-9)
    assert prod.d1 == pytest.approx(jp.d1 * jq.f + jp.f * jq.d1, abs=1e-8)
    assert prod.d2 == pytest.approx(
        jp.d2 * jq.f + 2 * jp.d1 * jq.d1 + jp.f * jq.d2, abs=1e-7)
    assert prod.d3 == pytest.approx(
        jp.d3 * jq.f + 3 * jp.d2 * jq.d1 + 3 * jp.d1 * jq.d2 + jp.f * jq.d3,
        abs=1e-7)


@given(st.tuples(coeff, coeff, coeff, coeff),
       st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_quotient_then_product_recovers(p, t):
    jp = poly_jet(p, t)
    denom = jexp(variable(t))  # never zero
    ratio = jp / denom
    back = ratio * denom
    for a, b in zip((back.f, back.d1, back.d2, back.d3),
                    (jp.f, jp.d1, jp.d2, jp.d3)):
        assert a == pytest.approx(b, abs=1e-9)


def _outcome(op, x, y):
    """repr of the four fields of op(x, y), or the type and text of what it
    raised."""
    try:
        r = op(x, y)
    except Exception as exc:
        return type(exc), str(exc)
    return tuple(map(repr, (r.f, r.d1, r.d2, r.d3)))


@settings(max_examples=400)
@given(st.tuples(*[edge | st.floats()] * 4),
       edge | st.integers(-3, 3) | st.sampled_from([10**200, -10**200]) | st.floats())
def test_float_operands_match_constant_jets_bit_for_bit(fields, c):
    # a float or int enters + - * / directly; the jet-jet path with the jet
    # constant(c) is the reference, signed zeros and raises included. The
    # powers of a divisor 10**200 overflow, as floats do, not as ints would.
    # c + a and c * a run __add__ and __mul__ on (a, c), so their reference
    # is a + constant(c) and a * constant(c): constant(c) * a differs where a
    # zero derivative meets an infinite term, as in 0.0 * inf = nan.
    a = Jet(*fields)
    for op, reflected in ((operator.add, (a, constant(c))),
                          (operator.sub, (constant(c), a)),
                          (operator.mul, (a, constant(c))),
                          (operator.truediv, (constant(c), a))):
        assert _outcome(op, a, c) == _outcome(op, a, constant(c))
        assert _outcome(op, c, a) == _outcome(op, *reflected)


def test_chain_rule_against_finite_differences():
    def fn(x):
        return jsin(jexp(x) + jpow(x, 3))

    t, h = 0.7, 1e-3
    j = jet_eval(fn, t)

    def scalar(x):
        return math.sin(math.exp(x) + x**3)

    fd1 = (scalar(t + h) - scalar(t - h)) / (2 * h)
    fd2 = (scalar(t + h) - 2 * scalar(t) + scalar(t - h)) / h**2
    fd3 = (scalar(t + 2 * h) - 2 * scalar(t + h) + 2 * scalar(t - h)
           - scalar(t - 2 * h)) / (2 * h**3)
    assert j.d1 == pytest.approx(fd1, abs=1e-5)
    assert j.d2 == pytest.approx(fd2, abs=1e-4)
    assert j.d3 == pytest.approx(fd3, abs=1e-3)


def test_log_exp_inverse():
    t = 1.3
    j = jlog(jexp(variable(t)))
    assert (j.f, j.d1, j.d2, j.d3) == pytest.approx((t, 1.0, 0.0, 0.0),
                                                    abs=1e-12)


def test_sec_is_one_over_cos():
    t = 0.4
    a = jsec(variable(t))
    b = 1.0 / jcos(variable(t))
    assert (a.f, a.d1, a.d2, a.d3) == pytest.approx((b.f, b.d1, b.d2, b.d3))


@pytest.mark.parametrize("z", [-3.0, -1e-8, 0.0, 0.4, 2.0, 12.0, 30.0])
def test_tanh_derivatives_keep_their_digits_where_tanh_nears_one(z):
    # sech^2 = 1 - tanh^2 would cancel to nothing at z = 12 and to 0 at z = 30
    mpmath = pytest.importorskip("mpmath")
    j = jtanh(variable(z))
    with mpmath.workdps(40):
        want = [mpmath.diff(mpmath.tanh, z, n) for n in range(4)]
    for got, w in zip((j.f, j.d1, j.d2, j.d3), want):
        assert got == pytest.approx(float(w), rel=1e-14, abs=1e-300)


def test_integer_and_fractional_powers():
    t = 2.0
    cube = jpow(variable(t), 3)
    assert (cube.f, cube.d1, cube.d2, cube.d3) == pytest.approx(
        (8.0, 12.0, 12.0, 6.0))
    half = jpow(variable(t), 0.5)
    ref = jsqrt(variable(t))
    assert (half.f, half.d1, half.d2, half.d3) == pytest.approx(
        (ref.f, ref.d1, ref.d2, ref.d3), abs=1e-12)


def test_jet_function_from_derivs_wraps_table():
    fn = jet_function_from_derivs(
        lambda t: (math.sin(t), math.cos(t), -math.sin(t), -math.cos(t)))
    j = fn(variable(0.3))
    ref = jsin(variable(0.3))
    assert (j.f, j.d1, j.d2, j.d3) == pytest.approx(
        (ref.f, ref.d1, ref.d2, ref.d3), abs=1e-14)
