"""Verification machinery: the per-point rows (oracle against closed forms,
identities, frame Gram matrix and derivative formulas) and the family
defining-property and target rows, aggregated into a report."""

import math
import random

from .errors import DomainError, MeridianError
from .families import PROFILE_SAMPLES, RESIDUAL_TOL, GeneratedSurface
from .invariants import (DEFAULT_ORACLE_STEP, InvariantRecord, StencilPass,
                         eight_invariants, oracle_frame_derivatives,
                         oracle_invariants)
from .minkowski import Vec4, minkowski_dot
from .profile import profile_point, sample_grid
from .records import Frozen, Record, set_fields
from .surface import GENERAL, MARGINALLY_TRAPPED, MeridianSurface, point_data

__all__ = [
    "CheckRecord",
    "VerificationReport",
    "sample_general_points",
    "check_defining_property",
    "check_family_targets",
    "verify_generated",
]

_ORACLE_FIELDS = tuple(f for f in InvariantRecord._fields if f != "epsilon")
_DERIV_ROWS = ("XX", "XY", "YX", "YY", "Xn1", "Yn1", "Xn2", "Yn2")
_THIRD = 1.0 / 3.0
SAMPLE_MARGIN = 5e-3   # least distance of sample points from the domain's edges
SAMPLE_SEED = 0        # seed of verify_generated's sampler
IDENTITY_TOL = 1e-9    # exact identities and the frame Gram matrix
ORACLE_TOL = 1e-6      # Richardson-extrapolated oracle against closed forms
# (name, tolerance) of each per-point row, in report order
_POINT_ROWS = ([(f"oracle:{name}", ORACLE_TOL) for name in _ORACLE_FIELDS]
               + [("k+4*nu1*nu2*mu^2", IDENTITY_TOL),
                  ("K-eps*(nu1*nu2-lam^2+mu^2)", IDENTITY_TOL),
                  ("frame-gram", IDENTITY_TOL)]
               + [(f"deriv:{name}", ORACLE_TOL) for name in _DERIV_ROWS])


class CheckRecord(Frozen):
    __slots__ = ("name", "grid", "max_abs_error", "tolerance", "passed",
                 "worst_location")

    def __init__(self, name: str, grid: int, max_abs_error: float, tolerance: float,
                 passed: bool, worst_location: tuple | None = None):
        set_fields(self, name, grid, max_abs_error, tolerance, passed, worst_location)

    def to_dict(self):
        return {
            "check": self.name,
            "grid": self.grid,
            "max_abs_error": self.max_abs_error,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "worst_location": list(self.worst_location) if self.worst_location else None,
        }


class VerificationReport(Record):
    __slots__ = ("checks",)

    def __init__(self, checks: list[CheckRecord]):
        self.checks = checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {"checks": [c.to_dict() for c in self.checks], "pass": self.passed}

    def lines(self):
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            out.append(f"[{status}] {c.name}: max|err| = {c.max_abs_error:.3e} "
                       f"(tol {c.tolerance:.1e}, {c.grid} points)")
        out.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return out


def _record(name, errs_locs, tol):
    """errs_locs: iterable of (abs_error, location). A NaN error is the
    worst wherever it stands, and fails the row."""
    errs_locs = list(errs_locs)
    if not errs_locs:
        return CheckRecord(name, 0, math.inf, tol, False, None)
    err, loc = max(errs_locs, key=lambda e: (math.isnan(e[0]), e[0]))
    return CheckRecord(name, len(errs_locs), err, tol, err <= tol, loc)


def sample_general_points(s: MeridianSurface, n: int, rng, h: float) -> list:
    """Draw n interior points classified General with rng.uniform(lo, hi)
    (a margin of max(SAMPLE_MARGIN, 2h) keeps the oracle stencil of step h
    inside the domain, and a discriminant margin keeps the points away from
    marginally trapped ones). A domain narrower than twice the margin
    raises MeridianError, or DomainError where the stencil is what does not
    fit; too few points raise MeridianError, naming how many points were
    passed over for each reason, and the first error a point raised."""
    return [(u, v) for u, v, _ in _sample(s, n, rng, h)]


def _sample(s: MeridianSurface, n: int, rng, h: float) -> list:
    """sample_general_points as (u, v, closed-form record) triples: a point
    whose point record or closed-form record raises is passed over."""
    u0, u1 = s.profile.domain
    v0, v1 = s.directrix.domain
    margin = max(SAMPLE_MARGIN, 2.0 * h)
    for axis, lo, hi in (("u", u0, u1), ("v", v0, v1)):
        if lo + margin > hi - margin:
            if margin > SAMPLE_MARGIN:
                raise DomainError(f"oracle stencil of radius 2h = {margin} does not "
                                  f"fit in the {axis} domain [{lo}, {hi}]")
            raise MeridianError(
                f"the {axis} domain [{lo}, {hi}] of width {hi - lo:g} is narrower "
                f"than twice the sample margin {SAMPLE_MARGIN}")
    pts = []
    attempts = 0
    passed_over = {"flat": 0, "marginally trapped": 0,
                   "inside the 1e-4 discriminant margin": 0, "raised": 0}
    skipped = None   # the first error passed over
    while len(pts) < n and attempts < 200 * n:
        attempts += 1
        u = rng.uniform(u0 + margin, u1 - margin)
        v = rng.uniform(v0 + margin, v1 - margin)
        try:
            d = point_data(s, u, v)
            if d.case is not GENERAL:
                reason = "marginally trapped" if d.case is MARGINALLY_TRAPPED else "flat"
            elif abs(d.disc) < 1e-4 * max(abs(d.c.kappa * d.p.fp), abs(d.p.q))**2:
                # too close to marginally trapped for stable frames
                reason = "inside the 1e-4 discriminant margin"
            else:
                pts.append((u, v, eight_invariants(d)))
                continue
        except MeridianError as exc:
            reason = "raised"
            skipped = skipped or exc
        passed_over[reason] += 1
    if len(pts) < n:
        counts = ", ".join(f"{k} {reason}" for reason, k in passed_over.items())
        why = f"; the first point passed over raised: {skipped}" if skipped else ""
        raise MeridianError(f"could only find {len(pts)}/{n} general sample points "
                            f"of {attempts} drawn, passed over: {counts}{why}")
    return pts


def _richardson(coarse, fine):
    """(4 fine - coarse) / 3 of oracle values at h and h/2: it cancels the
    O(h^2) term of the central differences and leaves O(h^4)."""
    return (4.0 * fine - coarse) / 3.0


def _point_rows(s: MeridianSurface, pts, h: float) -> list:
    """The records of every per-point row over pts, (u, v, closed-form
    record) triples from _sample, in _POINT_ROWS order. Each point's rows
    read one stencil pass at h, one at h/2 reusing its centre, and the
    point's record; a point's passes are dropped before the next point's
    are built. The rows:
    - oracle:<field>: |closed form - Richardson(oracle)| of each numeric field
      of the invariant record, at both signs of <H,H>;
    - the identities that relate independent closed forms: k against nu1,
      nu2 and mu, and the Gauss equation for K (gamma1 + gamma2 = 0,
      nu1 = nu2 and varkappa = 0 hold by construction in the closed forms;
      the oracle rows test them on the oracle's own gamma2, nu2, varkappa);
    - frame-gram: the centre's (x, y, b, l) against diag(1, 1, eps, -eps);
    - deriv:<row>: |table - Richardson(oracle)| of each row of the frame
      derivative table, read from the centre's frames:
      D_X X = -kappa_m n2, D_X Y = 0, D_Y X = (f'/f) Y,
      D_Y Y = -(f'/f) X + (kappa/f) n1 - (f'/f) n2,
      D_X n1 = 0, D_Y n1 = -(kappa/f) Y, D_X n2 = -kappa_m X, D_Y n2 = -(f'/f) Y
      (the n2 rows carry the orientation of n2 that keeps the table
      compatible with d<X,n2> = 0)."""
    rows = [[] for _ in _POINT_ROWS]
    for u, v, r in pts:
        coarse = StencilPass(s, u, v, h)
        fine = StencilPass(s, u, v, h / 2.0, coarse.centre)
        centre = coarse.centre
        lo = oracle_invariants(coarse)
        hi = oracle_invariants(fine)
        errs = [abs(getattr(r, name) - _richardson(getattr(lo, name), getattr(hi, name)))
                for name in _ORACLE_FIELDS]
        errs.append(abs(r.k + 4.0 * r.nu1 * r.nu2 * r.mu**2))
        errs.append(abs(r.K - r.epsilon * (r.nu1 * r.nu2 - r.lam**2 + r.mu**2)))

        frame = (centre.x, centre.y, centre.b, centre.l)
        eps = float(centre.epsilon)
        target = (1.0, 1.0, eps, -eps)
        errs.append(max(abs(minkowski_dot(a, b) - (target[i] if i == j else 0.0))
                        for i, a in enumerate(frame)
                        for j, b in enumerate(frame)))

        p, X, Y, n1, n2 = centre.d.p, centre.X, centre.Y, centre.n1, centre.n2
        fof, kof, nkm = p.fp / p.f, centre.d.c.kappa / p.f, -p.kappa_m
        # the table's rows as (field, coefficient) terms, summed from 0.0: that
        # changes at most the sign of a zero, which the error's abs drops
        table = {"XX": ((n2, nkm),), "XY": (), "YX": ((Y, fof),),
                 "YY": ((X, -fof), (n1, kof), (n2, -fof)), "Xn1": (),
                 "Yn1": ((Y, -kof),), "Xn2": ((X, nkm),), "Yn2": ((Y, -fof),)}
        lo, hi = oracle_frame_derivatives(coarse), oracle_frame_derivatives(fine)
        for name in _DERIV_ROWS:
            worst, a, b = 0.0, lo[name], hi[name]
            for c in Vec4.__slots__:
                want = 0.0
                for w, k in table[name]:
                    want += getattr(w, c) * k
                # Richardson per component, times 1/3 where the scalar rows divide by 3
                err = abs((getattr(b, c) * 4.0 - getattr(a, c)) * _THIRD - want)
                if err > worst or math.isnan(err):   # a NaN is the worst
                    worst = err
            errs.append(worst)
        for row, err in zip(rows, errs):
            row.append((err, (u, v)))
    return [_record(name, row, tol) for (name, tol), row in zip(_POINT_ROWS, rows)]


def check_defining_property(gen: GeneratedSurface) -> CheckRecord:
    """The family's defining relation on the PROFILE_SAMPLES rows of the
    realized range, from the profile records it builds there; generate
    builds none."""
    errs = [(gen.spec.residual(profile_point(gen.surface.profile, u)), (u, None))
            for u in sample_grid(gen.u_range, PROFILE_SAMPLES)]
    return _record(f"defining:{type(gen.spec).__name__}", errs, RESIDUAL_TOL)


def check_family_targets(gen: GeneratedSurface, v: float) -> list:
    """The family's headline constancy properties, spec.targets, on the
    PROFILE_SAMPLES rows at the column v. Samples whose point (u, v) is not
    general are skipped, as sample_general_points skips them, so each
    record's grid counts only the points evaluated."""
    records = []
    for u in sample_grid(gen.u_range, PROFILE_SAMPLES):
        d = point_data(gen.surface, u, v)
        if d.case is GENERAL:
            records.append(((u, v), eight_invariants(d)))
    return [_record(label, [(abs(getattr(r, field) - value), loc) for loc, r in records],
                    tol)
            for label, field, value, tol in gen.spec.targets]


def verify_generated(gen: GeneratedSurface, n_points: int = 50,
                     oracle_step: float = DEFAULT_ORACLE_STEP) -> VerificationReport:
    """Full verification of a generated surface: the per-point rows on
    n_points sampled general points and, for a family member (spec not
    None), the family's defining row and its target rows at the column of
    the first sample point, which is general."""
    if n_points < 1:
        raise MeridianError(f"verify needs at least one sample point, got {n_points}")
    pts = _sample(gen.surface, n_points, random.Random(SAMPLE_SEED), oracle_step)
    rows = _point_rows(gen.surface, pts, oracle_step)
    if gen.spec is not None:
        rows += [check_defining_property(gen), *check_family_targets(gen, pts[0][1])]
    return VerificationReport(rows)
