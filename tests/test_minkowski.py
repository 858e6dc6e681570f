"""Signature-(3,1) inner product, basis, and lightlike pair."""

import math

import pytest
from hypothesis import example, given, strategies as st

from meridian4.minkowski import Vec4, from_lightlike, minkowski_dot

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vectors = st.builds(Vec4, finite, finite, finite, finite)


def components(v):
    return (v.c1, v.c2, v.c3, v.c4)


def test_basis_gram_is_diag_1_1_1_minus_1():
    basis = (Vec4(1.0, 0.0, 0.0, 0.0), Vec4(0.0, 1.0, 0.0, 0.0),
             Vec4(0.0, 0.0, 1.0, 0.0), Vec4(0.0, 0.0, 0.0, 1.0))
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            expected = 0.0 if i != j else (-1.0 if i == 3 else 1.0)
            assert minkowski_dot(a, b) == expected


def test_lightlike_pair_products():
    xi1, xi2 = from_lightlike(0, 0, 1, 0), from_lightlike(0, 0, 0, 1)
    assert minkowski_dot(xi1, xi1) == pytest.approx(0.0, abs=1e-15)
    assert minkowski_dot(xi2, xi2) == pytest.approx(0.0, abs=1e-15)
    assert minkowski_dot(xi1, xi2) == pytest.approx(-1.0, abs=1e-15)


def test_lightlike_pair_components():
    xi1, xi2 = from_lightlike(0, 0, 1, 0), from_lightlike(0, 0, 0, 1)
    r = 1.0 / math.sqrt(2.0)
    assert components(xi1) == pytest.approx([0.0, 0.0, r, r])
    assert components(xi2) == pytest.approx([0.0, 0.0, -r, r])


def test_from_lightlike_roundtrip():
    xi1, xi2 = from_lightlike(0, 0, 1, 0), from_lightlike(0, 0, 0, 1)
    z = from_lightlike(2.0, 3.0, 5.0, 7.0)
    # <xi1, xi2> = -1, so the xi-coefficients come back crossed and negated.
    assert minkowski_dot(z, xi1) == pytest.approx(-7.0, abs=1e-12)
    assert minkowski_dot(z, xi2) == pytest.approx(-5.0, abs=1e-12)
    assert z.c1 == 2.0 and z.c2 == 3.0


@given(vectors, vectors)
def test_dot_is_symmetric(a, b):
    assert minkowski_dot(a, b) == pytest.approx(minkowski_dot(b, a), rel=1e-12)


@given(vectors, vectors, vectors, finite)
@example(Vec4(0.0, 0.0, 0.0, 0.0), Vec4(1e6, 0.0, 0.0, 1e6),
         Vec4(999999.96875, 0.0, 0.0, 1e6), 18015.0)
def test_dot_is_bilinear(a, b, c, s):
    left = minkowski_dot(a + s * b, c)
    right = minkowski_dot(a, c) + s * minkowski_dot(b, c)
    # rounding error scales with the products summed, not with the result,
    # which cancellation can make far smaller than they are
    scale = sum((abs(x) + abs(s * y)) * abs(z)
                for x, y, z in zip(components(a), components(b), components(c)))
    assert abs(left - right) <= 1e-9 * max(1.0, scale)


def test_vector_arithmetic():
    a = Vec4(1.0, 2.0, 3.0, 4.0)
    b = Vec4(4.0, 3.0, 2.0, 1.0)
    assert components(a + b) == pytest.approx([5.0, 5.0, 5.0, 5.0])
    assert components(a - b) == pytest.approx([-3.0, -1.0, 1.0, 3.0])
    assert components(2.0 * a) == pytest.approx([2.0, 4.0, 6.0, 8.0])
    assert components(a / 2.0) == pytest.approx([0.5, 1.0, 1.5, 2.0])
    assert components(-a) == pytest.approx([-1.0, -2.0, -3.0, -4.0])
