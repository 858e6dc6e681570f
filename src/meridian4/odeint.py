"""Dormand-Prince 5(4) integration with embedded error control and the
method's native 4th-order dense output (Dormand & Prince, J. Comput. Appl.
Math. 6, 1980; Hairer, Norsett & Wanner, Solving ODEs I, sections II.4-II.6).
One stepper serves two problems. dormand_prince integrates the autonomous
scalar profile equation f' = y(f); the profile's second coordinate g, with
g' = -1/(2 f'), rides along as a pure quadrature component on the stage
slopes: it costs no extra right-hand-side evaluation and does not steer the
step size. quadrature_path integrates a quadrature g' = F(t), for a profile
known only through f; there g is the stepped solution, so its own error
estimate steers the step."""

import math
from bisect import bisect_right

from .errors import DomainError, MeridianError, QuadratureLimitError
from .records import Frozen, set_fields

__all__ = ["RTOL", "ATOL", "DensePath", "dormand_prince", "quadrature_path"]

RTOL = 1e-14          # per-step error bound: ATOL + RTOL |y|
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
# Stage nodes: stage s + 1 sits at t + _C[s] h; only a right-hand side that
# depends on t reads them.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
# 5th- minus 4th-order weights over the seven stages: the local error estimate.
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
      -1 / 40)
# Weights of the 4th-order continuous extension (Hairer's DOPRI5 dense output).
_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
      -10690763975 / 1880347072, 701980252875 / 199316789632,
      -1453857185 / 822651844, 69997945 / 29380423)
# The tableau unpacked for _steps, which writes each weighted sum out: left
# to right from 0.0, as sum() over a list adds on Python 3.11 (3.12 changed
# sum()'s float algorithm; written out, the bits are the same on every
# Python), and with its zero weights, so that a non-finite stage always
# yields a non-finite sum.
((A21,), (A31, A32), (A41, A42, A43), (A51, A52, A53, A54),
 (A61, A62, A63, A64, A65), (B1, B2, B3, B4, B5, B6)) = _A
_, C2, C3, C4, C5, _, _ = _C
E1, E2, E3, E4, E5, E6, E7 = _E
D1, D2, D3, D4, D5, D6, D7 = _D


def _extension(v, dv, h, k0, k6, w):
    """Coefficients r0..r4 of the continuous extension of one step of a
    component from v to v + dv, with slopes k0, k6 at its ends and w = the
    _D-weighted sum of its stage slopes."""
    slope = h * k0 - dv
    return (v, dv, slope, dv - h * k6 - slope, h * w)


class DensePath(Frozen):
    """Dense solution of an accepted Dormand-Prince step sequence.

    ts: node abscissae (strictly increasing); coef: per step the coefficients
    r0..r4 of the continuous extension
    r0 + s (r1 + (1-s) (r2 + s (r3 + (1-s) r4))), s in [0, 1] across the
    step. It matches the nodes' values and slopes, so it is C^1, and it is
    4th-order accurate between nodes. yerr[i] is the sum of the embedded
    error estimates of y over steps 0..i. gcoef and gerr hold the same for
    g = integral from t0 of -1/(2 y').
    """

    __slots__ = ("ts", "coef", "yerr", "gcoef", "gerr")

    def __init__(self, ts: tuple, coef: tuple, yerr: tuple, gcoef: tuple, gerr: tuple):
        set_fields(self, ts, coef, yerr, gcoef, gerr)

    @property
    def t0(self) -> float:
        return self.ts[0]

    @property
    def t1(self) -> float:
        return self.ts[-1]

    def _locate(self, t: float) -> tuple:
        """(step index, fraction s across it) of t."""
        t0, t1 = self.t0, self.t1
        if not (t0 - 1e-12 <= t <= t1 + 1e-12):
            raise DomainError(f"interpolant queried at {t} outside [{t0}, {t1}]", t=t)
        t = min(max(t, t0), t1)
        i = min(bisect_right(self.ts, t) - 1, len(self.ts) - 2)
        return i, (t - self.ts[i]) / (self.ts[i + 1] - self.ts[i])

    def __call__(self, t: float) -> float:
        i, s = self._locate(t)
        r0, r1, r2, r3, r4 = self.coef[i]
        return r0 + s * (r1 + (1 - s) * (r2 + s * (r3 + (1 - s) * r4)))

    def g(self, t: float, tol: float) -> float:
        """g(t); QuadratureLimitError where the accumulated g error estimate
        of the steps up to the one holding t exceeds tol."""
        i, s = self._locate(t)
        if not self.gerr[i] <= tol:
            raise QuadratureLimitError(
                f"g error estimate {self.gerr[i]} up to u = {t} exceeds {tol}")
        r0, r1, r2, r3, r4 = self.gcoef[i]
        return r0 + s * (r1 + (1 - s) * (r2 + s * (r3 + (1 - s) * r4)))


def dormand_prince(rhs, t0: float, t1: float, y0: float) -> DensePath:
    """Integrate y' = rhs(y) (autonomous; y0 and rhs's argument and result
    are floats) from t0 to t1, and with it g' = -1/(2 y'), g(t0) = 0.

    Each step keeps the embedded error estimate within ATOL + RTOL |y|. rhs
    raises DomainError where y leaves its domain: a step whose stages raise
    it or give non-finite values is retried at a quarter of its length. When
    a rejected step would have to shrink below a fixed fraction of the span,
    the path ends at the last accepted node, before t1. g is
    integrated on the accepted steps' stage slopes; it does not steer the
    step size, and a stage slope of 0 makes g and its error estimate infinite
    from there on.
    """
    ts, coef, yerr, gcoef, gerr, _ = _steps(lambda t, y: rhs(y), t0, t1, y0, 0.0)
    if not coef:
        raise DomainError("integration could not complete a single step from t0", t=t0)
    return DensePath(ts, coef, yerr, gcoef, gerr)


def quadrature_path(F, t0: float, t1: float, tol: float) -> tuple:
    """Integrate g' = F(t) (floats), g(t0) = 0, from t0 to t1: the steps of
    dormand_prince with y = g, so g's own error estimate steers them, and
    each keeps it within max(tol h / (t1 - t0), ATOL + RTOL |g|). The first
    bound sums to tol over the span; the second keeps the steps next to a
    pole of F from shrinking with h.

    Returns (path, stop): the DensePath of g (coef and gcoef alike, yerr and
    gerr alike; None if no step was accepted), and None if it reaches t1,
    else the error that ended it: the MeridianError the last attempt raised,
    or a QuadratureLimitError naming the t where the step fell below the
    floor.
    """
    # the steps' ride-along component, -1/(2 g'), is not read
    ts, coef, summed_err, _, _, failure = _steps(lambda t, y: F(t), t0, t1, 0.0, tol)
    stop = None if ts[-1] == t1 else failure or QuadratureLimitError(
        f"g's step fell below its floor, {_MIN_STEP} of the span, at t = {ts[-1]}")
    return (DensePath(ts, coef, summed_err, coef, summed_err) if coef else None), stop


def _steps(rhs, t0, t1, y0, tol):
    """The Dormand-Prince steps of y' = rhs(t, y) from t0 to t1, with
    g' = -1/(2 y') riding along on the stage slopes; y's embedded error
    estimate steers them. Returns (ts, coef, yerr, gcoef, gerr, failure):
    the nodes, the continuous extensions and summed error estimates of y and
    g over the steps, and the MeridianError, if any, that the last attempt
    raised. The steps end before t1 where they would shrink below the floor.
    """
    span = t1 - t0
    floor = _MIN_STEP * span
    h = _FIRST_STEP * span
    t, y = t0, float(y0)
    y_err = g = g_err = 0.0
    k1 = rhs(t, y)
    ts, coef, yerr, gcoef, gerr = [t0], [], [], [], []
    rejected, failure = False, None
    while t < t1:
        last = h >= t1 - t
        if last:
            h = t1 - t
        failure = None
        try:
            k2 = rhs(t + C2 * h, y + h * (0.0 + A21 * k1))
            k3 = rhs(t + C3 * h, y + h * (0.0 + A31 * k1 + A32 * k2))
            k4 = rhs(t + C4 * h, y + h * (0.0 + A41 * k1 + A42 * k2 + A43 * k3))
            k5 = rhs(t + C5 * h, y + h * (0.0 + A51 * k1 + A52 * k2 + A53 * k3 + A54 * k4))
            k6 = rhs(t + h, y + h * (0.0 + A61 * k1 + A62 * k2 + A63 * k3
                                     + A64 * k4 + A65 * k5))
            y_new = y + h * (0.0 + B1 * k1 + B2 * k2 + B3 * k3 + B4 * k4
                             + B5 * k5 + B6 * k6)
            k7 = rhs(t + h, y_new)
            step_err = abs(h * (0.0 + E1 * k1 + E2 * k2 + E3 * k3 + E4 * k4
                                + E5 * k5 + E6 * k6 + E7 * k7))
            err = step_err / max(tol * h / span, ATOL + RTOL * max(abs(y), abs(y_new)))
        except MeridianError as e:
            err, failure = math.nan, e
        if math.isfinite(err) and err <= 1.0:
            coef.append(_extension(y, y_new - y, h, k1, k7, (
                0.0 + D1 * k1 + D2 * k2 + D3 * k3 + D4 * k4 + D5 * k5 + D6 * k6
                + D7 * k7)))
            y_err += step_err
            yerr.append(y_err)
            q1, q2, q3, q4, q5, q6, q7 = [-0.5 / ki if ki else math.inf
                                          for ki in (k1, k2, k3, k4, k5, k6, k7)]
            dg = h * (0.0 + B1 * q1 + B2 * q2 + B3 * q3 + B4 * q4 + B5 * q5 + B6 * q6)
            gcoef.append(_extension(g, dg, h, q1, q7, (
                0.0 + D1 * q1 + D2 * q2 + D3 * q3 + D4 * q4 + D5 * q5 + D6 * q6
                + D7 * q7)))
            g += dg
            g_err += abs(h * (0.0 + E1 * q1 + E2 * q2 + E3 * q3 + E4 * q4 + E5 * q5
                              + E6 * q6 + E7 * q7))
            gerr.append(g_err)
            t = t1 if last else t + h
            ts.append(t)
            y, k1 = y_new, k7
            h *= min(1.0 if rejected else 5.0, 0.9 * max(err, 1e-10) ** -0.2)
            rejected = False
            continue
        # a non-finite error means the stages failed or overflowed
        h *= max(0.2, 0.9 * err ** -0.2) if math.isfinite(err) else 0.25
        rejected = True
        if h < floor:
            break
    return tuple(ts), tuple(coef), tuple(yerr), tuple(gcoef), tuple(gerr), failure
