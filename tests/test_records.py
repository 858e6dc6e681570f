"""The record classes are written out, not generated by @dataclass, and keep
the contracts the dataclasses had: equality by class and fields, a field
hash, copy and pickle where they were frozen and no hash where they were
not, immutability, field order, and no instance dict where a record is
built per point."""

import copy
import importlib
import math
import pickle
import pkgutil

import pytest

import meridian4
from meridian4 import cli
from meridian4.errors import DomainError
from meridian4.cli import build_surface, parse_family_spec
from meridian4.families import (Chen, ConstantGauss, ConstantK, ConstantMean,
                                ParallelA, ParallelB, integrate_autonomous)
from meridian4.jets import Jet, jexp
from meridian4.minkowski import Vec4
from meridian4.profile import Directrix, ProfileCurve, directrix_point, profile_point
from meridian4.invariants import eight_invariants
from meridian4.surface import (MeridianSurface, PointFrames, combine, frames,
                               point_data)
from meridian4.verification import CheckRecord, VerificationReport

SPECS = [ConstantGauss(K=1.0, alpha=1.0, beta=0.0),
         ConstantMean(a=0.5, b=2.0, C=0.0, epsilon=1, branch=1),
         ConstantK(a=1.0, b=-1.0, c=0.5, branch=1),
         Chen(b=1.0, c=1.0, exponent_branch=1),
         ParallelA(c=1.0, d=1.0),
         ParallelB(a=1.0, c=1.0, b=-2.0)]


def frozen_records():
    spec, phi = parse_family_spec("constant-gauss K=1 alpha=1 beta=0")
    gen = build_surface(spec, phi, None, (0.1, 0.5), (0.0, 1.0))
    s = gen.surface
    return [gen, s, s.profile, s.directrix, profile_point(s.profile, 0.3),
            directrix_point(s.directrix, 0.5), frames(point_data(s, 0.3, 0.5)),
            frames(point_data(s, 0.4, 0.5)),
            integrate_autonomous(SPECS[3].y(), 1.5, (0.0, 0.5)),
            CheckRecord("a", 1, 0.0, 1.0, True), *SPECS]


def test_no_class_is_a_dataclass():
    found = []
    for info in pkgutil.iter_modules(meridian4.__path__):
        module = importlib.import_module(f"meridian4.{info.name}")
        found += [f"{info.name}.{obj.__name__}" for obj in vars(module).values()
                  if isinstance(obj, type) and obj.__module__ == module.__name__
                  and hasattr(obj, "__dataclass_fields__")]
    assert found == []


def test_vec4_is_a_mutable_record_of_its_components():
    v = Vec4(1.0, 2.0, 3.0, 4.0)
    assert repr(v) == "Vec4(c1=1.0, c2=2.0, c3=3.0, c4=4.0)"
    assert v == Vec4(1.0, 2.0, 3.0, 4.0) and v != Vec4(1.0, 2.0, 3.0, 5.0)
    assert v != (1.0, 2.0, 3.0, 4.0) and not v == (1.0, 2.0, 3.0, 4.0)
    with pytest.raises(TypeError):
        hash(v)
    for twin in (copy.copy(v), pickle.loads(pickle.dumps(v))):
        assert type(twin) is Vec4 and twin == v
    assert not hasattr(v, "__dict__")
    with pytest.raises(DomainError, match=r"^non-finite Vec4 components: "
                       r"\(1.0, nan, 3.0, 4.0\)$"):
        Vec4(1.0, math.nan, 3.0, 4.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=repr)
@pytest.mark.parametrize("at", range(4))
def test_vec4_refuses_a_non_finite_component_in_each_position(bad, at):
    # Vec4 tests finiteness with one comparison, (c - c) summed over the
    # components, which is 0.0 unless a component is +-inf or NaN
    comps = [1.0, -2.0, 3.0, 4.0]
    comps[at] = bad
    shown = ", ".join(map(str, comps))
    with pytest.raises(DomainError, match=rf"^non-finite Vec4 components: \({shown}\)$"):
        Vec4(*comps)


@pytest.mark.parametrize("comps", [
    (1, -2, 0, 3),
    (-0.0, 0.0, -0.0, 0.0),
    (5e-324, -5e-324, 1.0, 2.0),
    (1.7976931348623157e308, -1.7976931348623157e308,
     1.7976931348623157e308, -1.7976931348623157e308)],
    ids=["ints", "signed-zeros", "subnormal", "largest"])
def test_vec4_accepts_every_finite_component(comps):
    v = Vec4(*comps)
    assert [repr(c) for c in (v.c1, v.c2, v.c3, v.c4)] == [repr(c) for c in comps]


def test_vec4_operator_results_are_checked():
    # an operation that overflows builds a non-finite vector, which raises
    big = Vec4(1e308, 0.0, 0.0, 0.0)
    for overflow in (lambda: big * 10.0, lambda: big + big, lambda: big - -1.0 * big,
                     lambda: big / 1e-10):
        with pytest.raises(DomainError, match=r"^non-finite Vec4 components: \(inf, "):
            overflow()


@pytest.mark.parametrize("record", frozen_records(), ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_assignment(record):
    for name in (*record.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
        if name != "extra":
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert not hasattr(record, "__dict__")


def test_spec_equals_only_its_own_family_with_equal_fields():
    assert ConstantGauss(K=1, alpha=1, beta=1) != Chen(b=1, c=1, exponent_branch=1)
    assert not ConstantGauss(K=1, alpha=1, beta=1) == Chen(b=1, c=1, exponent_branch=1)
    assert ConstantGauss(1.0, 1.0, 0.0) == ConstantGauss(K=1.0, alpha=1.0, beta=0.0)
    assert ConstantGauss(1.0, 1.0, 0.0) != ConstantGauss(1.0, 1.0, 0.5)
    assert ParallelA(c=1.0, d=1.0) == ParallelA(1.0, 1.0, 0.0, 1)
    for spec in SPECS:
        values = tuple(getattr(spec, name) for name in spec.__slots__)
        assert spec != values and not spec == values
        twin = type(spec)(*values)
        assert twin == spec and hash(twin) == hash(spec)
    assert len(set(SPECS + [type(s)(*(getattr(s, n) for n in s.__slots__))
                            for s in SPECS])) == len(SPECS)


def test_records_equal_by_class_and_fields():
    assert Jet(1.0) == Jet(1.0) and Jet(1.0, 2.0) != Jet(1.0, 3.0)
    assert Jet(1.0) != (1.0, 0.0, 0.0, 0.0) and Jet(1.0) != 1.0
    p = ProfileCurve(jexp, (0.0, 1.0))
    twin = ProfileCurve(jexp, (0.0, 1.0))
    assert profile_point(p, 0.5) is not profile_point(twin, 0.5)
    assert profile_point(p, 0.5) == profile_point(twin, 0.5)
    assert profile_point(p, 0.5) != profile_point(p, 0.25)
    d = Directrix(jexp, (0.0, 1.0))
    c = directrix_point(d, 0.75)
    assert combine(profile_point(p, 0.5), c) == combine(profile_point(twin, 0.5), c)
    assert combine(profile_point(p, 0.5), c) != combine(profile_point(p, 0.25), c)
    # a point record compares the curve records it references by value
    twin_c = directrix_point(Directrix(jexp, (0.0, 1.0)), 0.75)
    assert combine(profile_point(p, 0.5), c) == combine(profile_point(twin, 0.5), twin_c)
    # a curve compares by its fields, not by the records it has cached
    assert p == twin and hash(p) == hash(twin)
    check = CheckRecord("a", 1, 0.0, 1e-9, True)
    assert VerificationReport([check]) == VerificationReport([check])
    assert VerificationReport([check]) != VerificationReport([])


def test_mutable_records_are_unhashable():
    p = profile_point(ProfileCurve(jexp, (0.0, 1.0)), 0.5)
    c = directrix_point(Directrix(jexp, (0.0, 1.0)), 0.75)
    for record in (Jet(1.0), combine(p, c), VerificationReport([])):
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("record", frozen_records(), ids=lambda r: type(r).__name__)
def test_frozen_records_copy_as_equal_records(record):
    for twin in (copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record) and twin == record
        if not isinstance(record, PointFrames):  # Vec4 has no hash
            assert hash(twin) == hash(record)


def test_frozen_records_pickle():
    p = ProfileCurve(jexp, (0.0, 1.0))
    d = Directrix(jexp, (0.0, 1.0))
    path = integrate_autonomous(SPECS[3].y(), 1.5, (0.0, 0.5))
    for record in (*SPECS, p, profile_point(p, 0.5), directrix_point(d, 0.75), path,
                   CheckRecord("a", 1, 0.0, 1.0, True, (0.5, 0.5))):
        assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("text, want", [
    ("constant-gauss K=1 alpha=1 beta=0",
     {"family": "ConstantGauss", "K": 1.0, "alpha": 1.0, "beta": 0.0, "phi": "1"}),
    ("constant-mean a=0.5 b=2 C=0 eps=+ branch=+",
     {"family": "ConstantMean", "a": 0.5, "b": 2.0, "C": 0.0, "epsilon": 1,
      "branch": 1}),
    ("constant-k a=1 b=-1 c=0.5 branch=-",
     {"family": "ConstantK", "a": 1.0, "b": -1.0, "c": 0.5, "branch": -1}),
    ("chen b=1 c=1 branch=+",
     {"family": "Chen", "b": 1.0, "c": 1.0, "exponent_branch": 1}),
    ("parallel-a c=1 d=1",
     {"family": "ParallelA", "c": 1.0, "d": 1.0, "a": 0.0, "sign": 1, "phi": "1"}),
    ("parallel-b a=1 c=1 b=-2",
     {"family": "ParallelB", "a": 1.0, "c": 1.0, "b": -2.0})])
def test_spec_dict_keeps_field_order(text, want):
    spec, phi = parse_family_spec(text)
    assert list(cli._spec_dict(spec, phi).items()) == list(want.items())


def test_records_print_their_fields_but_not_their_caches():
    assert repr(SPECS[0]) == "ConstantGauss(K=1.0, alpha=1.0, beta=0.0)"
    assert repr(Jet(1.0)) == "Jet(f=1.0, d1=0.0, d2=0.0, d3=0.0)"
    p = ProfileCurve(abs, (0.0, 1.0))
    assert repr(p) == f"ProfileCurve(f={abs!r}, domain=(0.0, 1.0), g_origin=0.0, g_eval=None)"


def test_a_point_record_references_and_prints_the_curve_records():
    s = MeridianSurface(ProfileCurve(jexp, (0.0, 1.0)), Directrix(jexp, (0.0, 1.0)))
    d = point_data(s, 0.5, 0.75)
    p, c = d.p, d.c
    assert p is profile_point(s.profile, 0.5) and c is directrix_point(s.directrix, 0.75)
    shown = repr(p)
    assert repr(d) == f"PointData(p={shown}, c={c!r}, disc={d.disc!r}, case={d.case!r})"
    # the u-only factors the invariants cache on the profile record are not
    # part of its value
    fresh = profile_point(ProfileCurve(jexp, (0.0, 1.0)), 0.5)
    assert p._terms is None
    eight_invariants(d.p, (d.c,))[0]
    assert p._terms is not None and fresh._terms is None
    assert repr(p) == shown and p == fresh and hash(p) == hash(fresh)
    assert pickle.loads(pickle.dumps(p)) == p


def test_traced_methods_stay_in_their_class_dicts():
    # perfbench's tracer wraps these by name in the class dict
    for cls, name in ((Jet, "__init__"), (Vec4, "__init__"),
                      (ProfileCurve, "f_jet"), (Directrix, "phi_jet")):
        assert name in vars(cls)
