"""Third-order scalar jets: value plus exact derivatives d1, d2, d3 of a
one-variable function at a point, propagated by truncated Taylor arithmetic.

Derivatives here are true derivatives (not Taylor coefficients); chain rules
use Faa di Bruno up to order 3:

    (g o u)'   = g1 u1
    (g o u)''  = g2 u1^2 + g1 u2
    (g o u)''' = g3 u1^3 + 3 g2 u1 u2 + g1 u3

Floats pass through as values: each j* function called on a float returns a
float, computed by the same operations as the value of its jet, and raises
the same DomainError outside its domain. A jet-capable function built from
them reads only its value when called on a float, and fn(t) equals
jet_eval(fn, t).f bit for bit (Griewank & Walther, Evaluating Derivatives,
2nd ed., 2008, ch. 13: evaluate to the Taylor order each use needs).
"""

import math
from collections.abc import Callable

from .errors import DomainError
from .records import Record

__all__ = [
    "Jet",
    "variable",
    "constant",
    "value",
    "jet_eval",
    "jdiv", "jsin", "jcos", "jtan", "jsec", "jsinh", "jcosh", "jtanh",
    "jexp", "jlog", "jsqrt", "jarcsin", "jpow",
    "jet_function_from_derivs",
]


def value(x) -> float:
    """The value of a jet; a float is its own value."""
    return x.f if isinstance(x, Jet) else x


class Jet(Record):
    __slots__ = ("f", "d1", "d2", "d3")

    def __init__(self, f: float, d1: float = 0.0, d2: float = 0.0, d3: float = 0.0):
        self.f = f
        self.d1 = d1
        self.d2 = d2
        self.d3 = d3

    # A float or int operand enters as the jet constant(other) would, its zero
    # derivatives written in as 0.0: a op c is a op constant(c) bit for bit.
    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.f + other.f, self.d1 + other.d1, self.d2 + other.d2,
                       self.d3 + other.d3)
        return Jet(self.f + other, self.d1 + 0.0, self.d2 + 0.0, self.d3 + 0.0)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.f - other.f, self.d1 - other.d1, self.d2 - other.d2,
                       self.d3 - other.d3)
        return Jet(self.f - other, self.d1 - 0.0, self.d2 - 0.0, self.d3 - 0.0)

    def __rsub__(self, other):
        return Jet(other - self.f, 0.0 - self.d1, 0.0 - self.d2, 0.0 - self.d3)

    def __neg__(self):
        return Jet(-self.f, -self.d1, -self.d2, -self.d3)

    def __mul__(self, other):
        a, b = self, other
        if isinstance(b, Jet):
            return Jet(a.f * b.f, a.d1 * b.f + a.f * b.d1,
                       a.d2 * b.f + 2.0 * a.d1 * b.d1 + a.f * b.d2,
                       a.d3 * b.f + 3.0 * a.d2 * b.d1 + 3.0 * a.d1 * b.d2 + a.f * b.d3)
        return Jet(a.f * b, a.d1 * b + a.f * 0.0, a.d2 * b + 2.0 * a.d1 * 0.0 + a.f * 0.0,
                   a.d3 * b + 3.0 * a.d2 * 0.0 + 3.0 * a.d1 * 0.0 + a.f * 0.0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """The value is the quotient of the values, as on floats; the
        derivatives are those of self * (1 / other)."""
        if isinstance(other, Jet):
            return _quotient(self.f, self.d1, self.d2, self.d3,
                             other.f, other.d1, other.d2, other.d3)
        return _quotient(self.f, self.d1, self.d2, self.d3, float(other), 0.0, 0.0, 0.0)

    def __rtruediv__(self, other):
        return _quotient(float(other), 0.0, 0.0, 0.0, self.f, self.d1, self.d2, self.d3)

    def __pow__(self, p):
        return jpow(self, p)


def _quotient(af, ad1, ad2, ad3, of, od1, od2, od3) -> Jet:
    """The jet (af, ad1, ad2, ad3) / (of, od1, od2, od3)."""
    if of == 0.0:
        raise DomainError("division by a jet with zero value", t=of)
    # r = 1 / o: the derivatives of 1/x composed with o
    r0, g1, g2, g3 = 1.0 / of, -1.0 / of**2, 2.0 / of**3, -6.0 / of**4
    r1 = g1 * od1
    r2 = g2 * od1**2 + g1 * od2
    r3 = g3 * od1**3 + 3.0 * g2 * od1 * od2 + g1 * od3
    return Jet(
        af / of,
        ad1 * r0 + af * r1,
        ad2 * r0 + 2.0 * ad1 * r1 + af * r2,
        ad3 * r0 + 3.0 * ad2 * r1 + 3.0 * ad1 * r2 + af * r3,
    )


def _compose(u: Jet, g0: float, g1: float, g2: float, g3: float) -> Jet:
    """Jet of g(u) given the derivatives g0..g3 of g at u.f."""
    return Jet(
        g0,
        g1 * u.d1,
        g2 * u.d1**2 + g1 * u.d2,
        g3 * u.d1**3 + 3.0 * g2 * u.d1 * u.d2 + g1 * u.d3,
    )


def variable(t: float) -> Jet:
    """Seed the independent variable at t."""
    return Jet(float(t), 1.0, 0.0, 0.0)


def constant(c: float) -> Jet:
    return Jet(float(c), 0.0, 0.0, 0.0)


def jdiv(a, b):
    """a / b for jets or floats; DomainError where the value of b is 0."""
    if value(b) == 0.0:
        raise DomainError("division by a jet with zero value", t=value(b))
    return a / b


def jsin(x):
    if not isinstance(x, Jet):
        return math.sin(x)
    s, c = math.sin(x.f), math.cos(x.f)
    return _compose(x, s, c, -s, -c)


def jcos(x):
    if not isinstance(x, Jet):
        return math.cos(x)
    s, c = math.sin(x.f), math.cos(x.f)
    return _compose(x, c, -s, -c, s)


def jtan(x):
    return jdiv(jsin(x), jcos(x))


def jsec(x):
    return jdiv(1.0, jcos(x))


def jsinh(x):
    if not isinstance(x, Jet):
        return math.sinh(x)
    s, c = math.sinh(x.f), math.cosh(x.f)
    return _compose(x, s, c, s, c)


def jcosh(x):
    if not isinstance(x, Jet):
        return math.cosh(x)
    s, c = math.sinh(x.f), math.cosh(x.f)
    return _compose(x, c, s, c, s)


def jtanh(x):
    """tanh with its derivatives from sech^2, not 1 - tanh^2, which cancels
    where tanh nears +-1."""
    if not isinstance(x, Jet):
        return math.tanh(x)
    t, s = math.tanh(x.f), 1.0 / math.cosh(x.f)
    s2 = s * s
    return _compose(x, t, s2, -2.0 * t * s2, 2.0 * s2 * (2.0 * t * t - s2))


def jexp(x):
    if not isinstance(x, Jet):
        return math.exp(x)
    e = math.exp(x.f)
    return _compose(x, e, e, e, e)


def jlog(x):
    t = value(x)
    if t <= 0.0:
        raise DomainError("log of non-positive argument", t=t)
    if not isinstance(x, Jet):
        return math.log(t)
    return _compose(x, math.log(t), 1.0 / t, -1.0 / t**2, 2.0 / t**3)


def jsqrt(x):
    t = value(x)
    if t < 0.0:
        raise DomainError("sqrt of negative argument", t=t)
    if t == 0.0:
        raise DomainError("sqrt jet undefined at 0 (infinite derivative)", t=t)
    r = math.sqrt(t)
    if not isinstance(x, Jet):
        return r
    return _compose(x, r, 0.5 / r, -0.25 / (r * t), 0.375 / (r * t**2))


def jarcsin(x):
    t = value(x)
    if not -1.0 < t < 1.0:
        raise DomainError("arcsin argument outside (-1, 1)", t=t)
    if not isinstance(x, Jet):
        return math.asin(t)
    w = 1.0 - t**2
    g1 = w**-0.5
    g2 = t * w**-1.5
    g3 = (1.0 + 2.0 * t**2) * w**-2.5
    return _compose(x, math.asin(t), g1, g2, g3)


def jpow(x, p):
    """x**p. Constant integer exponents stay exact via repeated
    multiplication; other exponents require a positive base. An exponent
    that varies (a jet with nonzero derivatives) takes its value from the
    float path, so the value does not depend on whether p varies, and its
    derivatives from exp(p log x), which also needs a positive base where
    the value of p is an integer."""
    if isinstance(p, Jet) and (p.d1 or p.d2 or p.d3):
        v = jpow(value(x), p.f)
        e = jexp(p * jlog(x))
        return Jet(v, e.d1, e.d2, e.d3)
    p = float(value(p))
    if p == round(p) and abs(p) <= 64:
        n = int(round(p))
        if n == 0:
            return constant(1.0) if isinstance(x, Jet) else 1.0
        base = x if n > 0 else jdiv(1.0, x)
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out
    t = value(x)
    if t <= 0.0:
        raise DomainError("non-integer power of non-positive base", t=t)
    if not isinstance(x, Jet):
        return t**p
    g0 = t**p
    g1 = p * t ** (p - 1.0)
    g2 = p * (p - 1.0) * t ** (p - 2.0)
    g3 = p * (p - 1.0) * (p - 2.0) * t ** (p - 3.0)
    return _compose(x, g0, g1, g2, g3)


def jet_eval(fn: Callable[[Jet], Jet], t: float) -> Jet:
    """Evaluate a jet-capable function at t with the variable seeded.

    Where a derivative leaves the float range (say 1/t, log t or sqrt t for
    |t| below about 1e-77, whose powers of t underflow), the jet raises
    DomainError, although the value alone may still exist; so does a math
    domain error (sin of an argument that overflowed to inf, say)."""
    try:
        return fn(variable(t))
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise DomainError(f"jet not representable at t = {t}: {exc}", t=t) from None


def jet_function_from_derivs(derivs: Callable[[float], tuple]) -> Callable[[Jet], Jet]:
    """Wrap a function given by a pointwise derivative table t -> (g, g', g'', g''')
    as a jet-capable callable (composes correctly with jet inputs; on a
    float it gives g)."""

    def fn(x):
        if not isinstance(x, Jet):
            return derivs(x)[0]
        g0, g1, g2, g3 = derivs(x.f)
        return _compose(x, g0, g1, g2, g3)

    return fn
