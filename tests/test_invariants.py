"""Closed-form invariants, their identities, and the exact oracle."""

import math
import re

import pytest

from meridian4.cli import build_surface, parse_family_spec
from meridian4.errors import (DomainError, FlatPointError, MarginallyTrappedError,
                              ProfileInvariantError)
from meridian4.expressions import compile_expression
from meridian4.invariants import (InvariantRecord, _derivative, _value, dual_frames,
                                  eight_invariants, oracle_invariants)
from meridian4.jets import jcos, jsqrt
from meridian4.profile import (Directrix, DirectrixPoint, ProfileCurve, ProfilePoint,
                               directrix_point, profile_point, sample_grid)
from meridian4.minkowski import Vec4, minkowski_dot
from meridian4.surface import (CLASSIFY_TOL, GENERAL, MeridianSurface, PointCase, frames,
                               point_data)

TWO_PI = 2.0 * math.pi
UNIT_PHI = Directrix(compile_expression("1", "v"), (0.0, TWO_PI))
SQRT_SURFACE = MeridianSurface(
    ProfileCurve(lambda u: jsqrt(u + 1.0), (0.0, 3.0), g_origin=-2.0 / 3.0),
    UNIT_PHI)
COS_SURFACE = MeridianSurface(ProfileCurve(jcos, (0.55, 1.05)), UNIT_PHI)
# kappa varies with v, and vanishes on v = pi
WAVY_SURFACE = MeridianSurface(
    SQRT_SURFACE.profile, Directrix(compile_expression("2+cos(v)", "v"), (0.0, TWO_PI)))


def invariants_at(s, u, v):
    d = point_data(s, u, v)
    return eight_invariants(d.p, (d.c,))[0]


def test_reference_record():
    r = invariants_at(SQRT_SURFACE, 0.0, 0.0)
    s2 = 0.5 / math.sqrt(2.0)
    assert (r.gamma1, r.gamma2) == pytest.approx((s2, -s2), abs=1e-12)
    assert (r.nu1, r.nu2, r.lam, r.mu) == pytest.approx(
        (0.5, 0.5, 0.5, 0.5), abs=1e-12)
    assert (r.beta1, r.beta2) == pytest.approx((0.0, 0.0), abs=1e-12)
    assert r.K == pytest.approx(0.25, abs=1e-12)
    assert r.k == pytest.approx(-0.25, abs=1e-12)
    assert r.varkappa == 0.0
    assert r.H_norm == pytest.approx(0.5, abs=1e-12)
    assert r.epsilon == 1


def test_H_norm_is_the_magnitude_of_nu():
    # H = nu b with <b,b> = eps, so ||H|| = |nu|, the bits of
    # sqrt|disc| / (2f |f'|), and the invariants CSV writes H_norm as nu's
    # text without its sign; the specs cover both signs of f' (nu < 0 where
    # f' < 0) and of <H,H>
    seen = set()
    for spec, u_range in (("direct f=sqrt(u+1) phi=2+cos(v)", (0.0, 3.0)),
                          ("direct f=2-u^2 phi=2+cos(3*v)", (0.1, 1.3)),
                          ("constant-gauss K=-1 alpha=1 beta=0.5 phi=2+cos(v)",
                           (0.0, 1.0))):
        s = build_surface(*parse_family_spec(spec), None, u_range, (0.0, TWO_PI)).surface
        for u in sample_grid(u_range, 12):
            for v in sample_grid((0.0, TWO_PI), 12):
                d = point_data(s, u, v)
                if d.case is not GENERAL:
                    continue
                r = eight_invariants(d.p, (d.c,))[0]
                assert math.copysign(1.0, r.H_norm) == 1.0
                assert r.H_norm == abs(r.nu1), (spec, u, v)
                assert r.H_norm == math.sqrt(abs(d.disc)) / (2.0 * d.p.f * abs(d.p.fp))
                assert repr(r.H_norm) == repr(r.nu1).lstrip("-"), (spec, u, v)
                seen.add((d.p.fp > 0, r.epsilon))
    assert seen == {(True, 1), (True, -1), (False, 1), (False, -1)}


def test_record_is_an_immutable_named_tuple():
    r = invariants_at(SQRT_SURFACE, 0.5, 1.0)
    assert len(InvariantRecord._fields) == 15
    assert r == tuple(getattr(r, name) for name in InvariantRecord._fields)
    gamma1, gamma2, *_, epsilon = r
    assert (gamma1, gamma2, epsilon) == (r.gamma1, r.gamma2, r.epsilon)
    with pytest.raises(AttributeError):
        r.K = 0.0


def test_K_closed_form():
    for u in (0.0, 1.0, 2.5):
        assert profile_point(SQRT_SURFACE.profile, u).K == pytest.approx(
            0.25 / (u + 1.0) ** 2, abs=1e-12)


def test_K_is_checked_where_f_vanishes():
    # f = u + u^2 is 0 at u = 0: a typed error, not a ZeroDivisionError
    s = MeridianSurface(ProfileCurve(compile_expression("u+u^2"), (0.0, 1.0)),
                        UNIT_PHI)
    with pytest.raises(ProfileInvariantError):
        profile_point(s.profile, 0.0).K


def test_H_components():
    r = invariants_at(SQRT_SURFACE, 0.0, 0.0)
    h1, h2, norm, eps = r.H_n1, r.H_n2, r.H_norm, r.epsilon
    assert h1 == pytest.approx(-0.5, abs=1e-12)   # kappa/(2f) with kappa = -1
    assert h2 == pytest.approx(0.0, abs=1e-12)    # q = 0 on this profile
    assert norm == pytest.approx(0.5, abs=1e-12)
    assert eps == 1


def test_identity_suite_on_two_surfaces():
    pts = [(0.3, 0.5), (1.2, 2.2), (2.6, 5.0)]
    for s in (SQRT_SURFACE, COS_SURFACE):
        for (u, v) in pts:
            if s is COS_SURFACE:
                u = 0.6 + 0.4 * (u / 3.0)
            r = invariants_at(s, u, v)
            assert r.gamma1 + r.gamma2 == pytest.approx(0.0, abs=1e-12)
            assert r.nu1 == pytest.approx(r.nu2, abs=1e-12)
            assert r.k == pytest.approx(-4.0 * r.nu1 * r.nu2 * r.mu**2,
                                        abs=1e-12)
            assert r.K == pytest.approx(
                r.epsilon * (r.nu1 * r.nu2 - r.lam**2 + r.mu**2), abs=1e-12)
            assert invariants_at(s, u, v).varkappa == pytest.approx(
                0.0, abs=1e-12)


def test_k_closed_form():
    for (u, v) in ((0.5, 1.0), (2.0, 3.0)):
        d = point_data(SQRT_SURFACE, u, v)
        expected = -(d.p.kappa_m**2) * d.c.kappa**2 / d.p.f**2
        assert eight_invariants(d.p, (d.c,))[0].k == pytest.approx(
            expected, abs=1e-12)


def oracle_frame(s, u, v):
    """The oracle's frame over duals at (u, v)."""
    return dual_frames(point_data(s, u, v))


def test_oracle_matches_closed_forms():
    for (u, v) in ((0.5, 1.0), (1.5, 3.0), (2.5, 5.0)):
        closed = invariants_at(SQRT_SURFACE, u, v)
        numeric = oracle_invariants(oracle_frame(SQRT_SURFACE, u, v))
        for name in ("gamma1", "gamma2", "nu1", "nu2", "lam", "mu",
                     "beta1", "beta2", "K", "k"):
            assert getattr(numeric, name) == pytest.approx(
                getattr(closed, name), abs=1e-12), name


def test_oracle_on_nonzero_q_surface():
    for (u, v) in ((0.7, 1.0), (0.9, 2.0)):
        closed = invariants_at(COS_SURFACE, u, v)
        numeric = oracle_invariants(oracle_frame(COS_SURFACE, u, v))
        for name in ("gamma1", "gamma2", "nu1", "nu2", "lam", "mu",
                     "beta1", "beta2"):
            assert getattr(numeric, name) == pytest.approx(
                getattr(closed, name), abs=1e-12), name


def test_oracle_H_vector():
    u, v = 1.0, 2.0
    closed = invariants_at(SQRT_SURFACE, u, v)
    numeric = oracle_invariants(oracle_frame(SQRT_SURFACE, u, v))
    assert numeric.H_n1 == pytest.approx(closed.H_n1, abs=1e-12)
    assert numeric.H_n2 == pytest.approx(closed.H_n2, abs=1e-12)


def frame_derivatives(s, u, v):
    """(the frame's values, its fields' derivatives along X = d/du and
    Y = d/dv / (f sqrt(D)), keyed 'XX', 'YX', 'Xn1', ...)."""
    fr, d = oracle_frame(s, u, v), point_data(s, u, v)
    cY = 1.0 / (d.p.f * math.sqrt(d.c.D))
    return fr, {axis + name: _derivative(getattr(fr, name), *coef)
                for axis, coef in (("X", (1.0, 0.0)), ("Y", (0.0, cY)))
                for name in ("X", "Y", "n1", "n2")}


def test_oracle_normal_components():
    u, v = 1.0, 2.0
    fr, derivs = frame_derivatives(SQRT_SURFACE, u, v)
    d, n1, n2 = point_data(SQRT_SURFACE, u, v), _value(fr.n1), _value(fr.n2)
    p, kappa = d.p, d.c.kappa
    sf = {(w, n): minkowski_dot(derivs[w], normal)
          for w in ("XX", "XY", "YY") for n, normal in (("n1", n1), ("n2", n2))}
    # D_X X = -kappa_m n2 and D_Y Y = ... + (kappa/f) n1 - (f'/f) n2,
    # with <n2, n2> = -1 flipping the sign of the n2 inner products.
    assert sf[("XX", "n1")] == pytest.approx(0.0, abs=1e-12)
    assert sf[("XX", "n2")] == pytest.approx(p.kappa_m, abs=1e-12)
    assert sf[("XY", "n1")] == pytest.approx(0.0, abs=1e-12)
    assert sf[("XY", "n2")] == pytest.approx(0.0, abs=1e-12)
    assert sf[("YY", "n1")] == pytest.approx(kappa / p.f, abs=1e-12)
    assert sf[("YY", "n2")] == pytest.approx(p.fp / p.f, abs=1e-12)


def test_eight_invariants_rejects_degenerate_points():
    # no record where the frame is undefined: the kernel gives the case
    flat = MeridianSurface(
        ProfileCurve(compile_expression("1 + 0.5*u"), (0.0, 2.0)), UNIT_PHI)
    assert invariants_at(flat, 1.0, 1.0) is PointCase.DEVELOPABLE_RULED_FLAT
    trapped = MeridianSurface(ProfileCurve(jcos, (0.05, 1.0)), UNIT_PHI)
    assert invariants_at(trapped, math.pi / 6.0, 1.0) is PointCase.MARGINALLY_TRAPPED
    with pytest.raises(MarginallyTrappedError):
        oracle_frame(trapped, math.pi / 6.0, 1.0)


def test_the_oracle_reads_no_neighbour_of_a_point():
    # a general point h from the flat line v = pi, and one h from the left
    # end of the domain: the oracle reads the point's jets alone, so no
    # neighbour's case or domain stops it; the flat point itself raises
    s = WAVY_SURFACE
    u, h = 1.0, 1e-4
    assert point_data(s, u, math.pi).case is PointCase.HYPERPLANAR_FLAT
    for uu, vv in ((u, math.pi - h), (h, 1.0)):
        closed = invariants_at(s, uu, vv)
        numeric = oracle_invariants(oracle_frame(s, uu, vv))
        for name in ("nu1", "lam", "mu", "beta1", "beta2", "k"):
            assert getattr(numeric, name) == pytest.approx(
                getattr(closed, name), abs=1e-9), (uu, vv, name)
    with pytest.raises(FlatPointError, match=re.escape(f"= ({u}, {math.pi});")):
        oracle_frame(s, u, math.pi)


def test_directional_derivatives_match_the_vec4_operators():
    # each derivative's bits must be those of the Vec4 operators over the
    # frame's partials (compared by repr): dF/du * a + dF/dv * c at the
    # (a, c) pairs oracle_invariants passes
    for u, v in ((1.0, 1.0), (0.5, 4.0)):
        fr = oracle_frame(WAVY_SURFACE, u, v)
        for name in ("X", "Y", "x", "y", "n1", "n2", "b", "l"):
            w = getattr(fr, name)
            du, dv = (Vec4(*(getattr(getattr(w, c), part) for c in Vec4.__slots__))
                      for part in ("du", "dv"))
            for a, c in ((0.7, 0.3), (-0.7, 0.3)):
                assert repr(_derivative(w, a, c)) == repr(du * a + dv * c), (name, a, c)


@pytest.mark.parametrize("s, u, v", [(WAVY_SURFACE, 1.0, 1.0), (WAVY_SURFACE, 0.5, 4.0),
                                     (COS_SURFACE, 0.7, 2.0)])
def test_the_frame_partials_are_the_limit_of_central_differences(s, u, v):
    # (F(t + h) - F(t - h)) / (2h) of the float frames converges on the
    # partials of the dual frame at second order: the worst gap over every
    # component of every field shrinks about 100x from h = 1e-2 to 1e-3, and
    # is below 1e-6 at 1e-4
    fr = oracle_frame(s, u, v)

    def gap(h):
        recs = [frames(point_data(s, uu, vv))
                for uu, vv in ((u + h, v), (u - h, v), (u, v + h), (u, v - h))]
        worst = 0.0
        for name in ("X", "Y", "x", "y", "n1", "n2", "b", "l"):
            up, um, vp, vm = (getattr(rec, name) for rec in recs)
            for c in Vec4.__slots__:
                x = getattr(getattr(fr, name), c)
                worst = max(worst,
                            abs(x.du - (getattr(up, c) - getattr(um, c)) / (2.0 * h)),
                            abs(x.dv - (getattr(vp, c) - getattr(vm, c)) / (2.0 * h)))
        return worst
    assert gap(1e-4) <= 1e-6
    assert 50.0 <= gap(1e-2) / gap(1e-3) <= 200.0


# --- the row kernel -------------------------------------------------------------

def _row_cases():
    """(name, profile record, directrix records) of the rows the kernel is
    checked on: every row of the grid of test_acceptance.MIXED_ARGS (both
    signs of eps and the flat column at v = pi), a developable row (f'' = 0)
    and a row through the marginally trapped point of f = cos u, phi = 1."""
    cases = []
    for name, spec, u_range, v_range, nu, nv in (
            ("mixed", "constant-gauss K=1 alpha=1 beta=0 phi=2+cos(v)", (0.1, 1.4),
             (0.0, TWO_PI), 12, 11),
            ("developable", "direct f=1+0.5*u phi=2+cos(v)", (0.0, 2.0), (0.0, TWO_PI),
             3, 11)):
        s = build_surface(*parse_family_spec(spec), None, u_range, v_range).surface
        cs = [directrix_point(s.directrix, v) for v in sample_grid(v_range, nv)]
        cases += [(name, profile_point(s.profile, u), cs) for u in sample_grid(u_range, nu)]
    trapped = MeridianSurface(ProfileCurve(jcos, (0.05, 1.0)), UNIT_PHI)
    cs = [directrix_point(trapped.directrix, v) for v in (0.5, 1.0, 2.0)]
    return cases + [("trapped", profile_point(trapped.profile, u), cs)
                    for u in (math.pi / 6.0, math.pi / 6.0 + 0.2)]


def _bits(entry):
    """An entry of the kernel in a form that tells apart any two different
    floats (0.0 and -0.0 too)."""
    if type(entry) is PointCase:
        return entry
    return type(entry), [repr(x) for x in entry]


@pytest.mark.parametrize("tol", [0.0, CLASSIFY_TOL, 1e-3])
def test_a_row_equals_its_one_column_calls(tol):
    seen = set()
    for name, p, cs in _row_cases():
        row = eight_invariants(p, cs, tol)
        assert len(row) == len(cs)
        for c, entry in zip(cs, row):
            [alone] = eight_invariants(p, (c,), tol)
            assert _bits(entry) == _bits(alone), (name, p.u, c.v, tol)
            seen.add(entry.epsilon if type(entry) is InvariantRecord else entry)
    if tol:
        # the rows hold every case and both signs of <H,H>
        assert seen == {1, -1, *PointCase} - {GENERAL}, seen


def test_a_row_raises_at_its_first_failing_point():
    # k overflows at v = 2 (the invariants), disc at v = 3 (the case rule):
    # the kernel names whichever comes first in the row
    p = ProfilePoint(u=0.5, f=1.0, fp=1.0, fpp=100.0, fppp=0.0, gp=-0.5, kappa_m=100.0,
                     q=0.5, gamma1=1.0 / math.sqrt(2.0), K=-100.0)
    c1, c2, c3 = (DirectrixPoint(v=v, phi=1.0, phid=0.0, phidd=kappa + 1.0, phiddd=0.0,
                                 kappa=kappa, kappa_dot=0.0, D=1.0)
                  for v, kappa in ((1.0, 1.0), (2.0, 1e153), (3.0, 1e200)))
    assert type(eight_invariants(p, (c1,))[0]) is InvariantRecord
    with pytest.raises(DomainError, match=r"^the invariants at \(u, v\) = "
                                          r"\(0.5, 2.0\) are not finite$"):
        eight_invariants(p, (c1, c2, c3))
    with pytest.raises(DomainError, match=r"^the point record at \(u, v\) = "
                                          r"\(0.5, 3.0\) is not finite$"):
        eight_invariants(p, (c1, c3, c2))
