"""Verification machinery: the per-point rows (the exact oracle against the
closed forms, identities, frame Gram matrix, derivative formulas, and the
jets' third derivatives against differences of their second) and the family
defining-property and target rows, aggregated into a report."""

import math
import random

from .errors import MeridianError
from .families import PROFILE_SAMPLES, RESIDUAL_TOL, GeneratedSurface
from .invariants import InvariantRecord, dual_frames, eight_invariants, oracle_invariants
from .minkowski import Vec4
from .profile import directrix_point, profile_point, sample_grid
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
SAMPLE_MARGIN = 5e-3   # least distance of sample points from the domain's edges
SAMPLE_SEED = 0        # seed of verify_generated's sampler
JET3_STEP = 1e-4       # the step of the jet3 rows' differences of f'' and phi''
IDENTITY_TOL = 1e-9    # exact identities and the frame Gram matrix
ORACLE_TOL = 1e-6      # oracle against closed forms, and the jet3 rows
# (name, tolerance) of each per-point row, in report order
_POINT_ROWS = ([(f"oracle:{name}", ORACLE_TOL) for name in _ORACLE_FIELDS]
               + [("k+4*nu1*nu2*mu^2", IDENTITY_TOL),
                  ("K-eps*(nu1*nu2-lam^2+mu^2)", IDENTITY_TOL),
                  ("frame-gram", IDENTITY_TOL)]
               + [(f"deriv:{name}", ORACLE_TOL) for name in _DERIV_ROWS]
               + [("jet3:f", ORACLE_TOL), ("jet3:phi", ORACLE_TOL)])


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


def sample_general_points(s: MeridianSurface, n: int, rng) -> list:
    """Draw n interior points classified General with rng.uniform(lo, hi),
    as (point record, closed-form record) pairs; a point d is at
    (d.p.u, d.c.v). SAMPLE_MARGIN keeps them inside the domain, with room
    for the jet3 rows' differences, and a discriminant margin keeps them
    away from marginally trapped ones; a point whose point record or
    closed-form record raises is passed over. A domain narrower than twice
    the margin raises MeridianError; too few points raise MeridianError,
    naming how many points were passed over for each reason, and the first
    error a point raised."""
    u0, u1 = s.profile.domain
    v0, v1 = s.directrix.domain
    for axis, lo, hi in (("u", u0, u1), ("v", v0, v1)):
        if lo + SAMPLE_MARGIN > hi - SAMPLE_MARGIN:
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
        u = rng.uniform(u0 + SAMPLE_MARGIN, u1 - SAMPLE_MARGIN)
        v = rng.uniform(v0 + SAMPLE_MARGIN, v1 - SAMPLE_MARGIN)
        try:
            d = point_data(s, u, v)
            if d.case is not GENERAL:
                reason = "marginally trapped" if d.case is MARGINALLY_TRAPPED else "flat"
            elif abs(d.disc) < 1e-4 * max(abs(d.c.kappa * d.p.fp), abs(d.p.q))**2:
                # too close to marginally trapped for stable frames
                reason = "inside the 1e-4 discriminant margin"
            else:
                pts.append((d, eight_invariants(d.p, (d.c,))[0]))
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


def _jet3_error(jet, t: float, d3: float) -> float:
    """|d3 - R| for d3, the jets' third derivative at t, and R the Richardson
    extrapolation (4 D(h/2) - D(h)) / 3 of the central differences D(h) =
    (jet(t + h).d2 - jet(t - h).d2) / (2h) of their second, h = JET3_STEP:
    it cancels the O(h^2) term of D and reads no third derivative."""
    h = JET3_STEP
    coarse = (jet(t + h).d2 - jet(t - h).d2) / (2.0 * h)
    fine = (jet(t + 0.5 * h).d2 - jet(t - 0.5 * h).d2) / h
    return abs(d3 - (4.0 * fine - coarse) / 3.0)


def _point_rows(s: MeridianSurface, pts) -> list:
    """The records of every per-point row over pts, (point record,
    closed-form record) pairs from sample_general_points, in _POINT_ROWS
    order. Each point's rows read one frame over duals
    (invariants.dual_frames), seeded from the point record, and the point's
    closed-form record. The rows:
    - oracle:<field>: |closed form - oracle| of each numeric field of the
      invariant record, at both signs of <H,H>;
    - the identities that relate independent closed forms: k against nu1,
      nu2 and mu, and the Gauss equation for K (gamma1 + gamma2 = 0,
      nu1 = nu2 and varkappa = 0 hold by construction in the closed forms;
      the oracle rows test them on the oracle's own gamma2, nu2, varkappa);
    - frame-gram: the frame's (x, y, b, l) against diag(1, 1, eps, -eps);
    - deriv:<row>: |table - derivative| of each row of the frame derivative
      table, the derivatives from the frame's partials, the table from its values:
      D_X X = -kappa_m n2, D_X Y = 0, D_Y X = (f'/f) Y,
      D_Y Y = -(f'/f) X + (kappa/f) n1 - (f'/f) n2,
      D_X n1 = 0, D_Y n1 = -(kappa/f) Y, D_X n2 = -kappa_m X, D_Y n2 = -(f'/f) Y
      (the n2 rows carry the orientation of n2 that keeps the table
      compatible with d<X,n2> = 0), with X = d/du and Y = d/dv / (f sqrt(D));
    - jet3:f and jet3:phi: the jets' f''' and phi''', which the closed forms
      and the oracle's seeds share, against differences of f'' and phi''."""
    rows = [[] for _ in _POINT_ROWS]
    for d, r in pts:
        p, c = d.p, d.c
        fr = dual_frames(d)
        o = oracle_invariants(fr)
        errs = [abs(getattr(r, name) - getattr(o, name)) for name in _ORACLE_FIELDS]
        errs.append(abs(r.k + 4.0 * r.nu1 * r.nu2 * r.mu**2))
        errs.append(abs(r.K - r.epsilon * (r.nu1 * r.nu2 - r.lam**2 + r.mu**2)))

        # the frame's values read in place, dotted in minkowski_dot's order
        frame = (fr.x, fr.y, fr.b, fr.l)
        eps = float(fr.epsilon)
        target = (1.0, 1.0, eps, -eps)
        errs.append(max(abs(a.c1.a * b.c1.a + a.c2.a * b.c2.a + a.c3.a * b.c3.a
                            - a.c4.a * b.c4.a - (target[i] if i == j else 0.0))
                        for i, a in enumerate(frame)
                        for j, b in enumerate(frame)))

        fof, kof, nkm = p.fp / p.f, c.kappa / p.f, -p.kappa_m
        cY = 1.0 / (p.f * math.sqrt(c.D))   # Y = cY d/dv
        # the table's rows as (field, coefficient) terms, summed from 0.0: that
        # changes at most the sign of a zero, which the error's abs drops
        X, Y, n1, n2 = fr.X, fr.Y, fr.n1, fr.n2
        table = {"XX": ((n2, nkm),), "XY": (), "YX": ((Y, fof),),
                 "YY": ((X, -fof), (n1, kof), (n2, -fof)), "Xn1": (),
                 "Yn1": ((Y, -kof),), "Xn2": ((X, nkm),), "Yn2": ((Y, -fof),)}
        for name in _DERIV_ROWS:
            field, along_u = getattr(fr, name[1:]), name[0] == "X"
            worst = 0.0
            for comp in Vec4.__slots__:
                want = 0.0
                for w, k in table[name]:
                    want += getattr(w, comp).a * k
                x = getattr(field, comp)
                err = abs((x.du if along_u else x.dv * cY) - want)
                if err > worst or math.isnan(err):   # a NaN is the worst
                    worst = err
            errs.append(worst)
        errs.append(_jet3_error(s.profile.f_jet, p.u, p.fppp))
        errs.append(_jet3_error(s.directrix.phi_jet, c.v, c.phiddd))
        for row, err in zip(rows, errs):
            row.append((err, (p.u, c.v)))
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
    s, records = gen.surface, []
    cs = (directrix_point(s.directrix, v),)
    for u in sample_grid(gen.u_range, PROFILE_SAMPLES):
        [r] = eight_invariants(profile_point(s.profile, u), cs)
        if type(r) is InvariantRecord:
            records.append(((u, v), r))
    return [_record(label, [(abs(getattr(r, field) - value), loc) for loc, r in records],
                    tol)
            for label, field, value, tol in gen.spec.targets]


def verify_generated(gen: GeneratedSurface, n_points: int = 50) -> VerificationReport:
    """Full verification of a generated surface: the per-point rows on
    n_points sampled general points and, for a family member (spec not
    None), the family's defining row and its target rows at the column of
    the first sample point, which is general."""
    if n_points < 1:
        raise MeridianError(f"verify needs at least one sample point, got {n_points}")
    pts = sample_general_points(gen.surface, n_points, random.Random(SAMPLE_SEED))
    rows = _point_rows(gen.surface, pts)
    if gen.spec is not None:
        rows += [check_defining_property(gen), *check_family_targets(gen, pts[0][0].c.v)]
    return VerificationReport(rows)
