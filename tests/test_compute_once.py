"""Each public per-point function evaluates the profile and directrix jets
once per point it needs: the centre for the closed forms and frames, the
centre plus four stencil points for the oracle. Each curve keeps the records
it evaluated, so a coordinate shared by several points, or by several
surfaces over the same curve, is evaluated once."""

import random
from collections import Counter

import pytest

from meridian4 import (cli, invariants, profile as profile_module, surface,
                       verification)
from meridian4.cli import build_surface, parse_family_spec
from meridian4.errors import (DegenerateDirectrixError, DomainError,
                              ProfileInvariantError)
from meridian4.families import (KAPPA_SAMPLES, ConstantMean,
                                constant_kappa_directrix, generate)
from meridian4.jets import jcos, jsqrt
from meridian4.minkowski import Vec4
from meridian4.profile import (Directrix, ProfileCurve, directrix_point,
                               profile_point, sample_grid)
from meridian4.surface import MeridianSurface
from meridian4.verification import (SAMPLE_SEED, sample_general_points,
                                    verify_generated)


class Counted:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def counted_surface():
    f = Counted(lambda u: jsqrt(u + 1.0))
    phi = Counted(lambda v: 2.0 + jcos(v))   # kappa varies with v
    s = MeridianSurface(ProfileCurve(f, (0.0, 3.0), g_origin=-2.0 / 3.0),
                        Directrix(phi, (0.0, 6.0)))
    return s, f, phi


@pytest.mark.parametrize("read, record, most", [
    (invariants.eight_invariants, surface.point_data, 1),
    (surface.frames, surface.point_data, 1),
    (invariants.oracle_invariants, invariants.StencilPass, 5),
    (invariants.oracle_frame_derivatives, invariants.StencilPass, 5),
], ids=["eight_invariants-1", "frames-1", "oracle_invariants-5",
        "oracle_frame_derivatives-5"])
def test_jets_evaluated_once_per_point(read, record, most):
    s, f, phi = counted_surface()
    read(record(s, 1.2, 2.0))
    assert 1 <= f.calls <= most
    assert 1 <= phi.calls <= most


# --- the curves' u- and v-records ---------------------------------------------

def bits(d):
    """Every field of a record, the case included, in a form that tells
    apart any two different floats (0.0 and -0.0 too)."""
    return [repr(getattr(d, name)) for name in d.__slots__]


def test_one_jet_per_coordinate_however_often_queried():
    s, f, phi = counted_surface()
    surface.point_data(s, 1.2, 2.0)
    surface.point_data(s, 1.2, 2.0)
    assert (f.calls, phi.calls) == (1, 1)
    surface.point_data(s, 1.3, 2.0)
    surface.point_data(s, 1.2, 2.5)
    assert (f.calls, phi.calls) == (2, 2)


def test_records_of_a_used_surface_equal_those_of_a_fresh_one():
    used = counted_surface()[0]
    h = invariants.DEFAULT_ORACLE_STEP
    for u, v in ((1.2, 2.0), (0.0, 2.0), (1.2, 0.0)):
        invariants.eight_invariants(surface.point_data(used, u, v))
    invariants.oracle_invariants(invariants.StencilPass(used, 1.2, 2.0, h))
    invariants.oracle_frame_derivatives(invariants.StencilPass(used, 1.2, 2.0, h / 2.0))
    points = [(1.2, 2.0), (1.2 + h, 2.0), (1.2, 2.0 - h / 2.0),
              (-0.0, 2.0), (0.0, 2.0), (1.2, -0.0), (1.2, 0.0)]
    for tol in (surface.CLASSIFY_TOL, 1e-12, 10.0):
        for u, v in points:
            fresh = counted_surface()[0]
            assert bits(surface.point_data(used, u, v, tol)) == \
                bits(surface.point_data(fresh, u, v, tol))


def test_a_failed_evaluation_is_not_kept():
    f = Counted(lambda u: u * u + 1.0)              # f'(0) = 0
    phi = Counted(lambda v: 0.0 * v)                # phi'^2 + phi^2 = 0
    s = MeridianSurface(ProfileCurve(f, (0.0, 1.0)), Directrix(phi, (0.0, 1.0)))
    for _ in range(2):
        with pytest.raises(ProfileInvariantError):
            profile_point(s.profile, 0.0)
        with pytest.raises(DegenerateDirectrixError):
            directrix_point(s.directrix, 0.5)
        with pytest.raises(DomainError):
            profile_point(s.profile, 2.0)
        profile_point(s.profile, 0.5)
    # two tries at each failing coordinate, one evaluation of the good one
    assert (f.calls, phi.calls) == (3, 2)


def test_verify_evaluates_each_stencil_coordinate_once(monkeypatch):
    jets = Counter()

    def counting(name, method):
        def counted(self, t):
            jets[name] += 1
            return method(self, t)
        return counted
    monkeypatch.setattr(ProfileCurve, "f_jet", counting("f", ProfileCurve.f_jet))
    monkeypatch.setattr(Directrix, "phi_jet", counting("phi", Directrix.phi_jet))
    spec, phi = parse_family_spec("constant-mean a=0.5 b=2 C=0 eps=+ branch=+")
    gen = build_surface(spec, phi, 0.6, (0.0, 0.15), (0.0, 0.3))
    assert jets["f"] == 0 and jets["phi"] == 21, jets
    assert verify_generated(gen, 20).passed
    # generate reads the 21 v of its curvature check and no u; verify's 20
    # points each touch 5 distinct u and 5 distinct v over their centre and
    # oracle stencils (100 and 100), the defining row builds the records of
    # the 50 u rows that the family-target rows read again, and the target
    # column is a sample point's v
    assert jets["f"] <= 150 and jets["phi"] <= 121, jets


def test_verify_builds_each_stencil_frame_once(monkeypatch):
    spec, phi = parse_family_spec("constant-mean a=0.5 b=2 C=0 eps=+ branch=+")
    gen = build_surface(spec, phi, 0.6, (0.0, 0.15), (0.0, 0.3))
    frames = Counter()
    build = surface.frames

    def counted(d):
        frames[(d.p.u, d.c.v)] += 1
        return build(d)
    for module in (surface, invariants, verification):
        if "frames" in vars(module):   # every module that binds it
            monkeypatch.setattr(module, "frames", counted)
    assert verify_generated(gen, 20).passed
    # per sample point: the centre, shared by both oracles at h and h/2 and
    # by the frame-Gram row, and the eight stencil points, each once
    assert sum(frames.values()) == 9 * 20
    assert sorted(set(frames.values())) == [1]


def test_verify_builds_each_vector_once(monkeypatch):
    spec, phi = parse_family_spec("constant-mean a=0.5 b=2 C=0 eps=+ branch=+")
    gen = build_surface(spec, phi, 0.6, (0.0, 0.15), (0.0, 0.3))
    built = [0]
    init = Vec4.__init__

    def counted(self, *components):
        built[0] += 1
        init(self, *components)
    monkeypatch.setattr(Vec4, "__init__", counted)
    assert verify_generated(gen, 20).passed
    # 20 points, each with 9 frames of 8 vectors (X, Y, x, y, n1, n2, b, l):
    # 1,440; per point and step, 14 central differences, 5 directional
    # derivatives, 1 normal part and 4 scaled frame derivatives: 40 passes
    # of 24 make 960; the rows build none
    assert built[0] == 9 * 20 * 8 + 40 * (14 + 5 + 1 + 4) == 2400


def test_verify_evaluates_the_closed_forms_once_per_point(monkeypatch):
    spec, phi = parse_family_spec("constant-mean a=0.5 b=2 C=0 eps=+ branch=+")
    gen = build_surface(spec, phi, 0.6, (0.0, 0.15), (0.0, 0.3))
    # drawn before the count starts: the sampler builds each point's record
    pts = sample_general_points(gen.surface, 20, random.Random(SAMPLE_SEED),
                                invariants.DEFAULT_ORACLE_STEP)
    calls = Counter()
    eight_invariants = verification.eight_invariants

    def counted(d):
        calls[(d.p.u, d.c.v)] += 1
        return eight_invariants(d)
    monkeypatch.setattr(verification, "eight_invariants", counted)
    assert verify_generated(gen, 20).passed
    # one record per sample point, built by the sampler and read by its
    # oracle and identity rows, and one per family-target row
    assert [calls[p] for p in pts] == [1] * 20
    assert sum(calls.values()) == 70


def test_a_checked_and_shared_directrix_evaluates_each_v_once(monkeypatch):
    calls = Counter()
    phi_jet = Directrix.phi_jet

    def counted(self, v):
        calls[v] += 1
        return phi_jet(self, v)
    monkeypatch.setattr(Directrix, "phi_jet", counted)
    d = constant_kappa_directrix(2.0, (0.0, 0.3))
    gen = generate(ConstantMean(a=0.5, b=2.0, C=0.0, epsilon=1, branch=1),
                   0.6, (0.0, 0.15), d)
    vs = sample_grid(d.domain, KAPPA_SAMPLES)
    assert calls == Counter(vs)          # generate's curvature check
    other = MeridianSurface(counted_surface()[0].profile, d)
    for s in (gen.surface, other):
        for v in vs:
            surface.point_data(s, 0.1, v)
    assert calls == Counter(vs)


def test_family_evaluates_the_profile_jet_once_per_row(tmp_path, monkeypatch):
    calls = Counter()
    jet_eval = profile_module.jet_eval

    def counted(fn, t):
        calls[t] += 1
        return jet_eval(fn, t)
    monkeypatch.setattr(profile_module, "jet_eval", counted)
    out = tmp_path / "f.csv"
    rc = cli.main(["family", "--spec", "constant-gauss K=1 alpha=1 beta=0",
                   "--u", "0.1:0.5:0.01", "--out", str(out)])
    assert rc == 0
    us = [float(row.split(",")[0]) for row in out.read_text().splitlines()[1:]]
    # the f, f', f'' columns and g's checks read the same record
    assert len(us) == 41 and calls == Counter(us)
