"""Verification report assembly and end-to-end checks on a generated surface."""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from meridian4 import verification
from meridian4.cli import build_surface, parse_family_spec
from meridian4.errors import MeridianError
from meridian4.expressions import compile_expression
from meridian4.families import GeneratedSurface, ParallelA, generate
from meridian4.invariants import Dual, InvariantRecord, dual_frames, oracle_invariants
from meridian4.jets import jet_function_from_derivs
from meridian4.profile import Directrix, DirectrixPoint, ProfileCurve, ProfilePoint
from meridian4.surface import MeridianSurface, PointFrames, point_data
from meridian4.verification import (_ORACLE_FIELDS, SAMPLE_SEED, CheckRecord,
                                    VerificationReport, _record,
                                    sample_general_points, verify_generated)

UNIT_PHI = Directrix(compile_expression("1", "v"), (0.0, 2.0 * math.pi))


def test_report_overall_pass_semantics():
    a = CheckRecord("a", 10, 1e-12, 1e-9, True)
    assert VerificationReport([a]).passed
    report = VerificationReport([a, CheckRecord("b", 10, 1e-3, 1e-9, False)])
    assert not report.passed
    d = report.to_dict()
    assert d["pass"] is False
    assert [c["check"] for c in d["checks"]] == ["a", "b"]
    assert any("FAIL" in line for line in report.lines())


@pytest.mark.parametrize("first", [0, 1])
def test_a_nan_error_fails_its_row_wherever_it_stands(first):
    entries = [(1e-9, "a"), (math.nan, "b")]
    if first:
        entries.reverse()
    rec = _record("x", entries, 1e-6)
    assert not rec.passed
    assert math.isnan(rec.max_abs_error) and rec.worst_location == "b"


def test_a_row_with_no_points_fails():
    rec = _record("x", [], 1e-6)
    assert not rec.passed and rec.grid == 0 and rec.max_abs_error == math.inf


def test_sample_general_points_is_deterministic():
    gen = generate(ParallelA(c=1.0, d=1.0, a=0.0, sign=1), None,
                   (0.0, 3.0), UNIT_PHI)
    a, b = ([(d.p.u, d.c.v) for d, _ in
             sample_general_points(gen.surface, 10, np.random.default_rng(7))]
            for _ in range(2))
    assert a == b


def test_identity_and_gram_checks_pass():
    gen = generate(ParallelA(c=1.0, d=1.0, a=0.0, sign=1), None,
                   (0.0, 3.0), UNIT_PHI)
    rows = {c.name: c for c in verify_generated(gen, n_points=20).checks}
    for name in ("k+4*nu1*nu2*mu^2", "K-eps*(nu1*nu2-lam^2+mu^2)", "frame-gram"):
        assert rows[name].passed and rows[name].grid == 20, rows[name]


PER_POINT_ROWS = (
    [f"oracle:{f}" for f in ("gamma1", "gamma2", "nu1", "nu2", "lam", "mu", "beta1",
                             "beta2", "K", "k", "varkappa", "H_n1", "H_n2", "H_norm")]
    + ["k+4*nu1*nu2*mu^2", "K-eps*(nu1*nu2-lam^2+mu^2)", "frame-gram"]
    + [f"deriv:{r}" for r in ("XX", "XY", "YX", "YY", "Xn1", "Yn1", "Xn2", "Yn2")]
    + ["jet3:f", "jet3:phi"])


def test_report_row_order():
    gen = generate(ParallelA(c=1.0, d=1.0, a=0.0, sign=1), None,
                   (0.0, 3.0), UNIT_PHI)
    assert [c.name for c in verify_generated(gen, n_points=5).checks] == (
        PER_POINT_ROWS + ["defining:ParallelA", "beta1==0", "beta2==0"])
    direct = _direct("sqrt(u+1)", (0.0, 3.0))
    assert [c.name for c in verify_generated(direct, n_points=5).checks] == PER_POINT_ROWS


def test_verify_generated_parallel_a_passes():
    gen = generate(ParallelA(c=1.0, d=1.0, a=0.0, sign=1), None,
                   (0.0, 3.0), UNIT_PHI)
    report = verify_generated(gen, n_points=25)
    assert report.passed, "\n".join(report.lines())
    names = [c.name for c in report.checks]
    assert any(name.startswith("oracle:") for name in names)
    assert any(name.startswith("deriv:") for name in names)
    assert any(name.startswith("defining:") for name in names)


def test_verify_generated_direct_surface_skips_family_checks():
    s = MeridianSurface(ProfileCurve(compile_expression("sqrt(u+1)"), (0.0, 3.0)),
                        UNIT_PHI)
    gen = GeneratedSurface(s, None, (0.0, 3.0), False)
    report = verify_generated(gen, n_points=5)
    assert report.passed, "\n".join(report.lines())
    names = [c.name for c in report.checks]
    assert any(name.startswith("oracle:") for name in names)
    assert not any(name.startswith("defining:") for name in names)


# (spec, f0, u range, v range): the acceptance spec of each family, ConstantGauss
# at K < 0 over a turn of a non-constant directrix, and ParallelA on that
# directrix, whose column at the middle of the v range is flat (kappa(pi) = 0)
FAMILY_CASES = [
    ("constant-gauss K=1 alpha=0 beta=1", None, (0.1, 1.4), (0.0, 2.0 * math.pi)),
    ("constant-mean a=0.5 b=2 C=0 eps=+ branch=+", 0.6, (0.0, 3.0), (0.0, 0.3)),
    ("constant-mean a=0.5 b=1 C=0 eps=- branch=+", 0.6, (0.0, 3.0), (0.0, 0.5)),
    ("constant-k a=1 b=-1 c=0.5 branch=+", 0.5, (0.0, 1.5), (0.0, 2.0 * math.pi)),
    ("chen b=1 c=1 branch=+", 1.5, (0.0, 1.5), (0.0, 0.5)),
    ("parallel-a c=1 d=1", None, (0.0, 3.0), (0.0, 2.0 * math.pi)),
    ("parallel-b a=1 c=1 b=-2", 1.0, (0.0, 1.0), (0.0, 2.0 * math.pi)),
    ("constant-gauss K=-1 alpha=1 beta=0 phi=2+cos(v)", None, (0.1, 1.4),
     (0.0, 2.0 * math.pi)),
    ("parallel-a c=1 d=1 phi=2+cos(v)", None, (0.0, 1.0), (0.0, 2.0 * math.pi)),
]


@pytest.mark.parametrize("text, f0, u_range, v_range", FAMILY_CASES,
                         ids=[case[0] for case in FAMILY_CASES])
def test_verify_generated_passes_on_every_family(text, f0, u_range, v_range):
    spec, phi = parse_family_spec(text)
    gen = build_surface(spec, phi, f0, u_range, v_range)
    report = verify_generated(gen)
    assert report.passed, "\n".join(report.lines())
    targets = report.checks[-len(spec.targets):]
    assert [c.name for c in targets] == [label for label, *_ in spec.targets]
    assert all(c.grid >= 1 for c in targets)


@pytest.mark.parametrize("n_points", [0, -1])
def test_verify_generated_refuses_fewer_than_one_point(n_points):
    with pytest.raises(MeridianError, match="at least one sample point"):
        verify_generated(_direct("sqrt(u+1)", (0.0, 3.0)), n_points)


def _direct(f, domain):
    s = MeridianSurface(ProfileCurve(compile_expression(f), domain), UNIT_PHI)
    return GeneratedSurface(s, None, domain, False)


# sqrt(u+1) has <H,H> > 0 on its domain; cos(u) has <H,H> < 0 below pi/6
MUTATION_SURFACES = {1: _direct("sqrt(u+1)", (0.0, 3.0)),
                     -1: _direct("cos(u)", (0.05, 0.45))}


def _failed(gen):
    report = verify_generated(gen, n_points=5)
    return {c.name for c in report.checks if not c.passed}


@pytest.mark.parametrize("eps", sorted(MUTATION_SURFACES))
def test_every_row_fails_under_its_mutation(eps, monkeypatch):
    # A relative 1e-5 change in one closed-form field, or in one component
    # of one frame derivative of the oracle, must fail that field's or that
    # row's check (DeMillo, Lipton & Sayward, IEEE Computer 11(4), 1978).
    gen = MUTATION_SURFACES[eps]
    pts = sample_general_points(gen.surface, 5, random.Random(SAMPLE_SEED))
    assert {r.epsilon for _, r in pts} == {eps}
    assert _failed(gen) == set()
    closed = verification.eight_invariants

    def bump(x):
        return x + 1e-5 * max(1.0, abs(x))

    for field in _ORACLE_FIELDS:
        def mutated_record(*args, field=field):
            return [r._replace(**{field: bump(getattr(r, field))})
                    if type(r) is InvariantRecord else r for r in closed(*args)]
        with monkeypatch.context() as m:
            m.setattr(verification, "eight_invariants", mutated_record)
            assert f"oracle:{field}" in _failed(gen), field
    for row in ("XX", "XY", "YX", "YY", "Xn1", "Yn1", "Xn2", "Yn2"):
        # the row's derivative is its field's partial along u (X) or v (Y)
        def mutated_frames(*args, field=row[1:], part="du" if row[0] == "X" else "dv"):
            c1 = getattr(dual_frames(*args), field).c1
            parts = {"a": c1.a, "du": c1.du, "dv": c1.dv}
            parts[part] = bump(parts[part])
            return _with_c1(dual_frames(*args), field, Dual(**parts))
        with monkeypatch.context() as m:
            m.setattr(verification, "dual_frames", mutated_frames)
            assert f"deriv:{row}" in _failed(gen), row


def _with_c1(fr, field, c1):
    """fr with the first component of its field `field` replaced by c1,
    which need not be finite."""
    w = getattr(fr, field)
    values = [getattr(fr, name) for name in PointFrames.__slots__]
    values[PointFrames.__slots__.index(field)] = SimpleNamespace(c1=c1, c2=w.c2, c3=w.c3,
                                                                 c4=w.c4)
    return PointFrames(*values)


@pytest.mark.parametrize("component", ["c1", "c2", "c4"])
def test_a_non_finite_derivative_component_fails_its_row(component, monkeypatch):
    # The deriv: rows are summed per component, not through Vec4: a NaN or
    # inf in any component's partial is that row's error, wherever it stands
    gen = MUTATION_SURFACES[1]

    def poisoned(*args, bad):
        fr = dual_frames(*args)
        w = fr.Y
        y = SimpleNamespace(c1=w.c1, c2=w.c2, c3=w.c3, c4=w.c4)
        x = getattr(w, component)
        setattr(y, component, Dual(x.a, x.du, bad))
        values = [y if name == "Y" else getattr(fr, name) for name in PointFrames.__slots__]
        return PointFrames(*values)
    for bad in (math.nan, math.inf):
        monkeypatch.setattr(verification, "dual_frames",
                            lambda *args, bad=bad: poisoned(*args, bad=bad))
        rows = {c.name: c for c in verify_generated(gen, n_points=5).checks}
        assert [name for name, c in rows.items() if not c.passed] == ["deriv:YY"]
        assert repr(rows["deriv:YY"].max_abs_error) == repr(bad)


def _oracle(*fields):
    return {f"oracle:{name}" for name in fields}


# One profile, f'' = -K f with K = -1, under two directrices with kappa_dot
# != 0: <H,H> < 0 at every sample point under phi = 2 + cos v, > 0 under
# phi = 0.2 + 0.05 cos v.
FIELD_SURFACES = {-1: "constant-gauss K=-1 alpha=1 beta=0.5 phi=2+cos(v)",
                  1: "constant-gauss K=-1 alpha=1 beta=0.5 phi=0.2+0.05*cos(v)"}
GAUSS, K4 = "K-eps*(nu1*nu2-lam^2+mu^2)", "k+4*nu1*nu2*mu^2"
# the coefficients along b and l, and H's n2 part and norm
_BL = _oracle("beta1", "beta2", "k", "lam", "mu", "nu1", "nu2", "H_n2", "H_norm")
_Y_ROWS = {"deriv:YX", "deriv:YY", "deriv:Yn1", "deriv:Yn2"}
# the rows each record field fails when scaled by 1 + 1e-3 (offset by 1e-3
# where it is 0), at both signs of <H,H>. The oracle's frame takes each
# field's value from the record and its partials from the record's 3-jets,
# so a field whose partial the closed forms share (q' in beta, f'''
# everywhere) fails the rows that read its value, and f''' only the jet3 row
FIELD_ROWS = {
    # the record's coordinate: in no formula, but the jet3 row's differences
    # are taken around it
    "u": {"jet3:f"},
    "f": {GAUSS, "defining:ConstantGauss", *_BL - _oracle("beta1", "beta2"),
          *_oracle("K", "gamma1", "gamma2")},
    "fp": {GAUSS, K4, "deriv:XX", "deriv:Xn2", "deriv:YY", "frame-gram", *_BL,
           *_oracle("K", "gamma1", "gamma2")},
    "fpp": {GAUSS, K4, "defining:ConstantGauss", "deriv:XX", "deriv:Xn2",
            *_BL - _oracle("beta1", "beta2"), *_oracle("K")},
    "fppp": {"jet3:f"},
    "gp": {"deriv:XX", "deriv:Xn2", "deriv:YY", "frame-gram", *_BL,
           *_oracle("K", "gamma1", "gamma2")},
    "kappa_m": {K4, "deriv:XX", "deriv:Xn2", *_oracle("k")},
    "q": {GAUSS, *_BL - _oracle("beta1", "beta2")},
    "gamma1": _oracle("gamma1", "gamma2"),
    "K": {GAUSS, "K==-1.0", *_oracle("K")},
    # the record's coordinate: frames' cos v and sin v read it, but a
    # rotation about the axis moves no invariant and no derivative row
    "v": {"jet3:phi"},
    "phi": {"deriv:YY", "deriv:Yn1", "frame-gram", *_BL,
            *_oracle("K", "gamma1", "gamma2", "H_n1")},
    "phid": {"deriv:YY", "deriv:Yn1", "frame-gram", *_BL,
             *_oracle("K", "gamma1", "gamma2", "H_n1")},
    # phi'' and phi''' only seed partials: d phi'/dv and d phi''/dv, and
    # through them d kappa/dv
    "phidd": {"deriv:YY", "deriv:Yn1", *_BL - _oracle("H_n2"), *_oracle("H_n1")},
    "phiddd": {"jet3:phi", *_oracle("beta1", "beta2")},
    "kappa": {"deriv:YY", "deriv:Yn1", *_BL - _oracle("H_n2", "beta1", "beta2"),
              *_oracle("H_n1")},
    "kappa_dot": _oracle("beta1", "beta2"),
    "D": {"deriv:YY", "deriv:Yn1", "frame-gram", *_BL,
          *_oracle("K", "gamma1", "gamma2", "H_n1")},
}
FIELD_ROWS_AT_EPS_PLUS = {"q": _oracle("K"), "phidd": _oracle("K"), "kappa": _oracle("K")}


@pytest.mark.parametrize("field", list(FIELD_ROWS))
@pytest.mark.parametrize("eps", sorted(FIELD_SURFACES))
def test_every_record_field_reaches_a_row(eps, field, monkeypatch):
    # The oracle's frame reads f, f', f'', g', phi, phi', D, kappa, q and
    # disc from the point records, as the closed forms do, and the partials
    # of each from the 3-jets the records hold. A 1e-3 change in any field
    # must still fail a named row: the oracle's H and coefficients come from
    # the partials, not from the fields.
    spec, phi = parse_family_spec(FIELD_SURFACES[eps])

    def failed():
        gen = build_surface(spec, phi, None, (0.0, 1.0), (0.0, 2.0 * math.pi))
        return gen, {c.name for c in verify_generated(gen, 20).checks if not c.passed}
    gen, none = failed()
    pts = sample_general_points(gen.surface, 20, random.Random(SAMPLE_SEED))
    assert {d.disc > 0 for d, _ in pts} == {eps > 0}
    assert none == set()
    cls = ProfilePoint if field in ProfilePoint.__slots__ else DirectrixPoint
    at, init = cls.__slots__.index(field), cls.__init__

    def scaled(self, *fields):
        fields = list(fields)
        fields[at] = fields[at] * (1.0 + 1e-3) if fields[at] else 1e-3
        init(self, *fields)
    monkeypatch.setattr(cls, "__init__", scaled)
    assert failed()[1] == FIELD_ROWS[field] | (FIELD_ROWS_AT_EPS_PLUS.get(field, set())
                                            if eps > 0 else set())


def _verify_cmc_surface():
    spec, phi = parse_family_spec("constant-mean a=0.5 b=2 C=0 eps=+ branch=+")
    return build_surface(spec, phi, 0.6, (0.0, 0.15), (0.0, 0.3))


@pytest.mark.parametrize("gen, eps", [(_verify_cmc_surface(), 1),
                                      (MUTATION_SURFACES[-1], -1)],
                         ids=["verify_cmc", "eps=-1"])
def test_shared_passes_give_the_standalone_oracle_values(gen, eps, monkeypatch):
    # verify reads one frame over duals per point, shared by the oracle, the
    # frame-Gram row and the derivative rows; every frame must be a fresh
    # dual_frames of the point and every oracle value the fresh frame's,
    # bit for bit (compared by repr, so signed zeros count)
    calls = {"dual_frames": [], "oracle_invariants": []}
    for name, log in calls.items():
        def recorded(*args, fn=getattr(verification, name), log=log):
            out = fn(*args)
            log.append((args, out))
            return out
        monkeypatch.setattr(verification, name, recorded)
    assert verify_generated(gen, 20).passed
    # one of each per point: perfbench's invariants.oracle.calls reads 20
    assert [len(log) for log in calls.values()] == [20, 20]
    for (args, shared), ((fr,), values) in zip(*calls.values()):
        d = args[0]
        fresh = dual_frames(point_data(gen.surface, d.p.u, d.c.v))
        assert shared is fr and repr(shared) == repr(fresh)
        assert values.epsilon == eps
        assert [repr(x) for x in values] == [repr(x) for x in oracle_invariants(fresh)]


def test_the_sampler_passes_over_a_point_whose_invariants_raise():
    # the point records are finite, but k and beta overflow at every general
    # point: each is passed over as raised, where verify used to stop at the
    # first one it had accepted
    f = jet_function_from_derivs(lambda t: (1e-5, 1e-9, 1e141, 0.0))
    s = MeridianSurface(ProfileCurve(f, (0.0, 1.0)),
                        Directrix(compile_expression("2+cos(v)", "v"), (0.0, 1.0)))
    gen = GeneratedSurface(s, None, (0.0, 1.0), False)
    with pytest.raises(MeridianError) as exc:
        verify_generated(gen, 5)
    assert str(exc.value) == (
        "could only find 0/5 general sample points of 1000 drawn, passed over: "
        "0 flat, 0 marginally trapped, 0 inside the 1e-4 discriminant margin, "
        "1000 raised; the first point passed over raised: the invariants at "
        "(u, v) = (0.8409776330097977, 0.7553748589108994) are not finite")
