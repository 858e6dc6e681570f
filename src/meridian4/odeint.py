"""Dormand-Prince 5(4) integration with embedded error control and the
method's native 4th-order dense output, for the autonomous profile equation
f' = y(f) and the constant-curvature directrix IVP (Dormand & Prince, J.
Comput. Appl. Math. 6, 1980; Hairer, Norsett & Wanner, Solving ODEs I,
sections II.4-II.6). The systems have dimension 1 or 2, so states are plain
lists of floats."""

import math
from bisect import bisect_right
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["RTOL", "ATOL", "DensePath", "dormand_prince"]

RTOL = 1e-14          # per-step error bound: ATOL + RTOL |y|, componentwise
ATOL = 1e-14
_FIRST_STEP = 1e-3    # first trial step, as a fraction of the span
_MIN_STEP = 1e-6      # a step that must shrink below this fraction truncates

# Row s builds the point of stage s + 2 from stages 1..s + 1; the last row
# holds the 5th-order weights, whose point is the step's result and whose
# stage is the first stage of the next step (first same as last).
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# 5th- minus 4th-order weights over the seven stages: the local error estimate.
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
      -1 / 40)
# Weights of the 4th-order continuous extension (Hairer's DOPRI5 dense output).
_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
      -10690763975 / 1880347072, 701980252875 / 199316789632,
      -1453857185 / 822651844, 69997945 / 29380423)


def _weighted(w, k, j):
    """Component j of sum_i w_i k_i, summed left to right. Zero weights are
    multiplied too, so a non-finite stage always yields a non-finite sum."""
    return sum([wi * ki[j] for wi, ki in zip(w, k)])


@dataclass(frozen=True)
class DensePath:
    """Dense solution of an accepted Dormand-Prince step sequence.

    ts: node abscissae (strictly increasing); coef: per step the coefficient
    vectors r0..r4 of the continuous extension
    r0 + s (r1 + (1-s) (r2 + s (r3 + (1-s) r4))), s in [0, 1] across the
    step. It matches the nodes' values and slopes, so it is C^1, and it is
    4th-order accurate between nodes.
    """

    ts: tuple
    coef: tuple
    truncated: bool = False

    @property
    def t0(self) -> float:
        return self.ts[0]

    @property
    def t1(self) -> float:
        return self.ts[-1]

    def __call__(self, t: float) -> list:
        t0, t1 = self.t0, self.t1
        if not (t0 - 1e-12 <= t <= t1 + 1e-12):
            raise DomainError(f"interpolant queried at {t} outside [{t0}, {t1}]", t=t)
        t = min(max(t, t0), t1)
        i = min(bisect_right(self.ts, t) - 1, len(self.ts) - 2)
        s = (t - self.ts[i]) / (self.ts[i + 1] - self.ts[i])
        return [r0 + s * (r1 + (1 - s) * (r2 + s * (r3 + (1 - s) * r4)))
                for r0, r1, r2, r3, r4 in zip(*self.coef[i])]


def dormand_prince(rhs, t0: float, t1: float, y0) -> DensePath:
    """Integrate y' = rhs(y) (autonomous; y0 and rhs's argument and result
    are sequences of floats) from t0 to t1.

    Each step keeps the embedded error estimate within ATOL + RTOL |y|. rhs
    raises DomainError where y leaves its domain: a step whose stages raise
    it or give non-finite values is retried at a quarter of its length. When
    a rejected step would have to shrink below a fixed fraction of the span,
    the path ends at the last accepted node with truncated=True.
    """
    y = [float(c) for c in y0]
    k = [rhs(y)] + [None] * 6
    floor = _MIN_STEP * (t1 - t0)
    h = _FIRST_STEP * (t1 - t0)
    t = t0
    ts, coef = [t0], []
    truncated = rejected = False
    while t < t1:
        last = h >= t1 - t
        if last:
            h = t1 - t
        try:
            for s, a in enumerate(_A, 1):
                y_new = [yj + h * _weighted(a, k, j) for j, yj in enumerate(y)]
                k[s] = rhs(y_new)
            errs = [abs(h * _weighted(_E, k, j))
                    / (ATOL + RTOL * max(abs(yj), abs(y_new[j])))
                    for j, yj in enumerate(y)]
            # max() skips a NaN that is not first: check every component
            err = max(errs) if all(map(math.isfinite, errs)) else math.nan
        except DomainError:
            err = math.nan
        if err <= 1.0:
            dy = [b - a for a, b in zip(y, y_new)]
            slope = [h * a - b for a, b in zip(k[0], dy)]
            coef.append((y, dy, slope,
                         [a - h * b - c for a, b, c in zip(dy, k[6], slope)],
                         [h * _weighted(_D, k, j) for j in range(len(y))]))
            t = t1 if last else t + h
            ts.append(t)
            y, k[0] = y_new, k[6]
            h *= min(1.0 if rejected else 5.0, 0.9 * max(err, 1e-10) ** -0.2)
            rejected = False
            continue
        # a non-finite error means the stages left the domain or overflowed
        h *= max(0.2, 0.9 * err ** -0.2) if math.isfinite(err) else 0.25
        rejected = True
        if h < floor:
            truncated = True
            break
    if not coef:
        raise DomainError("integration could not complete a single step from t0", t=t0)
    return DensePath(tuple(ts), tuple(coef), truncated=truncated)
