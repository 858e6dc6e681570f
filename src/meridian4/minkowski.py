"""Minkowski 4-space linear algebra: vectors, the signature-(3,1) metric and
coordinates in the pseudo-orthonormal (lightlike) basis."""

import math

from .errors import DomainError
from .records import Record

__all__ = [
    "Vec4",
    "minkowski_dot",
    "from_lightlike",
]

_SQRT2 = math.sqrt(2.0)


class Vec4(Record):
    """Vector in R^4_1, stored in coordinates w.r.t. the orthonormal basis
    {e1, e2, e3, e4} (the only storage format; lightlike coordinates are a
    conversion). A component that is not finite raises DomainError."""

    __slots__ = ("c1", "c2", "c3", "c4")

    def __init__(self, c1: float, c2: float, c3: float, c4: float):
        # x - x is 0.0 for a finite x and NaN for +-inf and NaN: one comparison
        if (c1 - c1) + (c2 - c2) + (c3 - c3) + (c4 - c4) != 0.0:
            raise DomainError(f"non-finite Vec4 components: ({c1}, {c2}, {c3}, {c4})")
        self.c1 = c1
        self.c2 = c2
        self.c3 = c3
        self.c4 = c4

    def __add__(self, other: "Vec4") -> "Vec4":
        return Vec4(self.c1 + other.c1, self.c2 + other.c2,
                    self.c3 + other.c3, self.c4 + other.c4)

    def __sub__(self, other: "Vec4") -> "Vec4":
        return Vec4(self.c1 - other.c1, self.c2 - other.c2,
                    self.c3 - other.c3, self.c4 - other.c4)

    def __mul__(self, s: float) -> "Vec4":
        return Vec4(self.c1 * s, self.c2 * s, self.c3 * s, self.c4 * s)

    __rmul__ = __mul__

    def __truediv__(self, s: float) -> "Vec4":
        return self * (1.0 / s)

    def __neg__(self) -> "Vec4":
        return self * -1.0


def minkowski_dot(a: Vec4, b: Vec4) -> float:
    """Inner product of signature (3,1): a1*b1 + a2*b2 + a3*b3 - a4*b4."""
    return a.c1 * b.c1 + a.c2 * b.c2 + a.c3 * b.c3 - a.c4 * b.c4


def from_lightlike(a: float, b: float, p: float, q: float) -> Vec4:
    """Convert a*e1 + b*e2 + p*xi1 + q*xi2 to e-coordinates."""
    return Vec4(a, b, (p - q) / _SQRT2, (p + q) / _SQRT2)
