"""Closed-form invariants, their identities, and the finite-difference oracle."""

import math
import re

import pytest

from meridian4.cli import build_surface, parse_family_spec
from meridian4.errors import (DomainError, FlatPointError,
                              MarginallyTrappedError, ProfileInvariantError)
from meridian4.expressions import compile_expression
from meridian4.invariants import (InvariantRecord, StencilPass, _directional,
                                  eight_invariants, oracle_frame_derivatives,
                                  oracle_invariants)
from meridian4.jets import jcos, jsqrt
from meridian4.profile import Directrix, ProfileCurve, profile_point, sample_grid
from meridian4.minkowski import minkowski_dot
from meridian4.surface import (GENERAL, MeridianSurface, PointCase, frames,
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
    return eight_invariants(point_data(s, u, v))


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
                r = eight_invariants(d)
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
        assert eight_invariants(d).k == pytest.approx(
            expected, abs=1e-12)


def test_oracle_matches_closed_forms():
    for (u, v) in ((0.5, 1.0), (1.5, 3.0), (2.5, 5.0)):
        closed = invariants_at(SQRT_SURFACE, u, v)
        numeric = oracle_invariants(StencilPass(SQRT_SURFACE, u, v, 1e-4))
        for name in ("gamma1", "gamma2", "nu1", "nu2", "lam", "mu",
                     "beta1", "beta2", "K", "k"):
            assert getattr(numeric, name) == pytest.approx(
                getattr(closed, name), abs=1e-6), name


def test_oracle_on_nonzero_q_surface():
    for (u, v) in ((0.7, 1.0), (0.9, 2.0)):
        closed = invariants_at(COS_SURFACE, u, v)
        numeric = oracle_invariants(StencilPass(COS_SURFACE, u, v, 1e-4))
        for name in ("gamma1", "gamma2", "nu1", "nu2", "lam", "mu",
                     "beta1", "beta2"):
            assert getattr(numeric, name) == pytest.approx(
                getattr(closed, name), abs=1e-6), name


def test_oracle_H_vector():
    u, v = 1.0, 2.0
    closed = invariants_at(SQRT_SURFACE, u, v)
    numeric = oracle_invariants(StencilPass(SQRT_SURFACE, u, v, 1e-4))
    assert numeric.H_n1 == pytest.approx(closed.H_n1, abs=1e-7)
    assert numeric.H_n2 == pytest.approx(closed.H_n2, abs=1e-7)


def test_oracle_normal_components():
    u, v = 1.0, 2.0
    stencil = StencilPass(SQRT_SURFACE, u, v, 1e-4)
    d, n1, n2 = stencil.centre.d, stencil.centre.n1, stencil.centre.n2
    p, kappa = d.p, d.c.kappa
    derivs = oracle_frame_derivatives(stencil)
    sf = {(w, n): minkowski_dot(derivs[w], normal)
          for w in ("XX", "XY", "YY") for n, normal in (("n1", n1), ("n2", n2))}
    # D_X X = -kappa_m n2 and D_Y Y = ... + (kappa/f) n1 - (f'/f) n2,
    # with <n2, n2> = -1 flipping the sign of the n2 inner products.
    assert sf[("XX", "n1")] == pytest.approx(0.0, abs=1e-7)
    assert sf[("XX", "n2")] == pytest.approx(p.kappa_m, abs=1e-7)
    assert sf[("XY", "n1")] == pytest.approx(0.0, abs=1e-7)
    assert sf[("XY", "n2")] == pytest.approx(0.0, abs=1e-7)
    assert sf[("YY", "n1")] == pytest.approx(kappa / p.f, abs=1e-7)
    assert sf[("YY", "n2")] == pytest.approx(p.fp / p.f, abs=1e-7)


def test_eight_invariants_rejects_degenerate_points():
    flat = MeridianSurface(
        ProfileCurve(compile_expression("1 + 0.5*u"), (0.0, 2.0)), UNIT_PHI)
    with pytest.raises(FlatPointError):
        invariants_at(flat, 1.0, 1.0)
    trapped = MeridianSurface(ProfileCurve(jcos, (0.05, 1.0)), UNIT_PHI)
    with pytest.raises(MarginallyTrappedError):
        invariants_at(trapped, math.pi / 6.0, 1.0)


@pytest.mark.parametrize("h", [0.0, -1e-4, math.nan])
def test_oracle_step_must_be_positive(h):
    with pytest.raises(DomainError, match="is not positive"):
        StencilPass(SQRT_SURFACE, 1.0, 1.0, h)


@pytest.mark.parametrize("u, v, h", [
    (1.0, 1.0, 1e-300),    # u + h == u and v + h == v
    (1.0, 0.0, 1e-300),    # u + h == u only
    (0.0, 0.0, 1e-320)])   # each stencil point moves, but 1/(2h) overflows
def test_oracle_step_must_resolve_the_stencil(u, v, h):
    s = MeridianSurface(ProfileCurve(lambda t: 2.0 + t, (-1.0, 3.0)),
                        Directrix(lambda t: 2.0 + jcos(t), (-1.0, 2.0)))
    with pytest.raises(DomainError, match="is too small"):
        StencilPass(s, u, v, h)


@pytest.mark.parametrize("u, v", [(1e-4, 1.0), (2.9999, 1.0), (1.0, 1e-4),
                                  (1.0, TWO_PI - 1e-4)])
def test_oracle_stencil_must_stay_in_the_domain(u, v):
    with pytest.raises(DomainError, match="oracle stencil of radius"):
        StencilPass(SQRT_SURFACE, u, v, 1e-4)


def test_a_flat_stencil_point_stops_only_the_invariant_oracle():
    # the centre is general, its stencil point (u, v + h) on v = pi
    # hyperplanar-flat, where b and l are undefined but X, Y, n1, n2 are not
    s = WAVY_SURFACE
    u, h = 1.0, 1e-4
    v = math.pi - h
    assert point_data(s, u, v).case is PointCase.GENERAL
    assert point_data(s, u, v + h).case is PointCase.HYPERPLANAR_FLAT
    stencil = StencilPass(s, u, v, h)
    with pytest.raises(FlatPointError, match=re.escape(f"= ({u}, {v + h});")):
        oracle_invariants(stencil)
    derivs = oracle_frame_derivatives(stencil)
    assert sorted(derivs) == ["XX", "XY", "Xn1", "Xn2", "YX", "YY", "Yn1", "Yn2"]


def test_directional_derivatives_match_the_vec4_operators():
    # each derivative's bits must be those of the Vec4 operators over the
    # public frames (compared by repr): (F(u+h) - F(u-h)) / (2h) * a +
    # (F(v+h) - F(v-h)) / (2h) * c at the (a, c) pairs oracle_invariants
    # passes, and the u- and v-differences alone for the frame derivatives
    h = 1e-4
    for u, v in ((1.0, 1.0), (0.5, 4.0)):
        stencil = StencilPass(WAVY_SURFACE, u, v, h)
        recs = [frames(point_data(WAVY_SURFACE, uu, vv))
                for uu, vv in ((u + h, v), (u - h, v), (u, v + h), (u, v - h))]
        d = point_data(WAVY_SURFACE, u, v)
        cY = 1.0 / (d.p.f * math.sqrt(d.c.D))
        derivs = oracle_frame_derivatives(stencil)
        for name in ("X", "Y", "x", "y", "n1", "n2", "b", "l"):
            up, um, vp, vm = (getattr(rec, name) for rec in recs)
            du, dv = (up - um) / (2.0 * h), (vp - vm) / (2.0 * h)
            for a, c in ((0.7, 0.3), (-0.7, 0.3)):
                want = du * a + dv * c
                assert repr(_directional(stencil, name, a, c)) == repr(want), (name, a, c)
            if name in ("X", "Y", "n1", "n2"):
                assert repr(derivs["X" + name]) == repr(du), name
                assert repr(derivs["Y" + name]) == repr(dv * cY), name
