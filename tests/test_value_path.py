"""Value-only evaluation: a jet-capable function called on a float gives the
value of its jet bit for bit, and the same DomainError outside its domain;
the ODE integration builds no jets, and g of an ODE profile reads one
profile jet per u and no quadrature; the value types carry no per-instance
dict."""

import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from meridian4 import (cli, invariants as invariants_module, odeint,
                       profile as profile_module, surface as surface_module)
from meridian4.errors import DomainError
from meridian4.expressions import compile_expression
from meridian4.families import (Chen, ConstantK, ConstantMean, ParallelB,
                                constant_kappa_directrix, integrate_autonomous,
                                profile_from_path)
from meridian4.jets import (Jet, jarcsin, jcos, jcosh, jdiv, jet_eval,
                            jet_function_from_derivs, jexp, jlog, jpow,
                            jsec, jsin, jsinh, jsqrt, jtan, jtanh)
from meridian4.minkowski import Vec4
from meridian4.profile import (Directrix, ProfileCurve, directrix_point, g_from_f,
                               profile_point)
from meridian4.surface import MeridianSurface, point_data

# the domain edges of the functions below, then plain floats
POINTS = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, math.pi / 2])
          | st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))


def outcome(fn, t):
    """('value', bits), ('DomainError', message, t) or ('OverflowError',)
    of fn at t."""
    try:
        v = fn(t)
    except DomainError as exc:
        return ("DomainError", str(exc), exc.t)
    except OverflowError:
        return ("OverflowError",)
    assert type(v) is float
    return ("value", v.hex())


def assert_value_path_matches(fn, t):
    value = outcome(fn, t)
    jet = outcome(lambda x: jet_eval(fn, x).f, t)
    if jet[0] == "DomainError" and jet[1].startswith("jet not representable"):
        # next to a pole at 0 the derivatives leave the float range; the
        # value alone may still fit, or overflow as well
        assert value[0] in ("value", "OverflowError") and abs(t) < 1e-70
    else:
        assert value == jet


JET_FUNCTIONS = {
    "jsin": jsin, "jcos": jcos, "jtan": jtan, "jsec": jsec,
    "jsinh": jsinh, "jcosh": jcosh, "jtanh": jtanh, "jexp": jexp, "jlog": jlog,
    "jsqrt": jsqrt, "jarcsin": jarcsin,
    "jpow(x, 3)": lambda x: jpow(x, 3), "jpow(x, -2)": lambda x: jpow(x, -2),
    "jpow(x, 0)": lambda x: jpow(x, 0), "jpow(x, 0.5)": lambda x: jpow(x, 0.5),
    "jpow(x, -1.5)": lambda x: jpow(x, -1.5),
    "jdiv(1, x)": lambda x: jdiv(1.0, x), "jdiv(x, 3)": lambda x: jdiv(x, 3.0),
    "jet_function_from_derivs": jet_function_from_derivs(
        lambda t: (math.sin(t) / (1.0 + t * t), 1.0, 2.0, 3.0)),
}

EXPRESSIONS = [
    "sin(u)", "cos(u)", "tan(u)", "sec(u)", "sinh(u)", "cosh(u)", "exp(u)",
    "log(u)", "sqrt(u)", "u + 2", "2 + u", "u - 2", "2 - u", "3 * u", "u * u",
    "u / 3", "3 / u", "u / u", "u ^ 3", "u ^ -2", "u ^ 0", "u ^ 0.5", "2 ^ u",
    "u ^ u", "-u", "+u", "2", "2 / 0",
    "sqrt(u + 1) * cos(2 * u) / (1 + u ^ 2) - log(u + 5) ^ 1.5",
]
VARIABLE_EXPONENT = {"u ^ u"}

FAMILY_SPECS = [
    ConstantMean(a=0.5, b=2.0, C=0.0, epsilon=1, branch=1),
    ConstantMean(a=0.5, b=2.0, C=0.3, epsilon=1, branch=-1),
    ConstantMean(a=0.5, b=-2.0, C=0.0, epsilon=1, branch=1),
    ConstantMean(a=0.5, b=1.0, C=0.0, epsilon=-1, branch=1),
    ConstantMean(a=-0.5, b=1.0, C=0.2, epsilon=-1, branch=-1),
    ConstantK(a=1.0, b=-1.0, c=0.5, branch=1),
    Chen(b=1.0, c=1.0, exponent_branch=1),
    Chen(b=1.0, c=2.0, exponent_branch=-1),
    ParallelB(a=1.0, c=1.0, b=-2.0),
]

value_settings = settings(derandomize=True, max_examples=100, deadline=None)


@pytest.mark.parametrize("name", sorted(JET_FUNCTIONS))
@value_settings
@given(t=POINTS)
def test_jet_functions_pass_floats_through(name, t):
    assert_value_path_matches(JET_FUNCTIONS[name], t)


@pytest.mark.parametrize("text", EXPRESSIONS)
@value_settings
@given(t=POINTS)
def test_compiled_expressions_pass_floats_through(text, t):
    # a varying exponent's derivatives need a positive base even where the
    # exponent's value is an integer and the value alone exists
    assume(text not in VARIABLE_EXPONENT or t > 0 or t != round(t))
    assert_value_path_matches(compile_expression(text), t)


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=repr)
@value_settings
@given(t=POINTS)
# next to t = 0 the jet of a quotient with c t^-1 below cubes a derivative
# that overflows, though y''' itself fits
@example(t=3.752077342838801e-53)
def test_family_y_passes_floats_through(spec, t):
    assert_value_path_matches(spec.y(), t)


@pytest.mark.parametrize("b", [-0.5, 1.0])
@value_settings
@given(t=st.floats(min_value=0.0, max_value=0.5))
def test_constant_kappa_directrix_passes_floats_through(b, t):
    assert_value_path_matches(constant_kappa_directrix(b, (0.0, 0.5)).phi, t)


def test_domain_errors_are_exercised():
    """The edges in POINTS reach every domain check at least once."""
    for fn, t in ((jsqrt, 0.0), (jlog, -1.0), (jarcsin, 1.0),
                  (lambda x: jpow(x, 0.5), -1.0), (lambda x: jdiv(1.0, x), 0.0),
                  (FAMILY_SPECS[0].y(), 2.0)):
        assert outcome(fn, t)[0] == "DomainError"
        assert_value_path_matches(fn, t)


@pytest.fixture
def jets_built(monkeypatch):
    """Counts Jet constructions while the test runs."""
    count = [0]
    init = Jet.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Jet, "__init__", counting)
    return count


CMC = ConstantMean(a=0.5, b=2.0, C=0.0, epsilon=1, branch=1)


def test_integrate_autonomous_builds_no_jets(jets_built):
    path = integrate_autonomous(CMC.y(), 0.6, (0.0, 0.5))
    assert path.t1 == 0.5
    assert jets_built[0] == 0


def test_g_table_of_an_ode_profile_builds_no_jets(monkeypatch):
    # an ODE profile reads g from its integrator: no quadrature pass, and
    # its checks read f' from the record at u (and at u0 for the sign)
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature_path called")

    profile_jets = []
    original = profile_module.jet_eval

    def counted(fn, t):
        profile_jets.append(t)
        return original(fn, t)

    monkeypatch.setattr(odeint, "quadrature_path", no_quadrature)
    monkeypatch.setattr(profile_module, "jet_eval", counted)
    y = CMC.y()
    p = profile_from_path(integrate_autonomous(y, 0.6, (0.0, 0.5)), y)
    queried = (0.17, 0.3, p.domain[1])
    for _ in range(2):
        for u in queried:
            g_from_f(p, u)
    assert p._pass is None
    assert sorted(profile_jets) == [p.domain[0], *queried]


def test_mesh_computes_g_once_per_row(tmp_path, monkeypatch):
    calls = []
    original = profile_module.g_from_f

    def counted(p, u):
        calls.append(u)
        return original(p, u)

    for module in (profile_module, surface_module, cli):   # wherever it is bound
        if hasattr(module, "g_from_f"):
            monkeypatch.setattr(module, "g_from_f", counted)
    rc = cli.main(["mesh", "--spec", "direct f=sqrt(u+1) phi=1", "--u", "0:3",
                   "--v", "0:6", "--grid", "3x4", "--out", str(tmp_path / "m.json")])
    assert rc == 0
    assert calls == [0.0, 1.5, 3.0]


@pytest.mark.parametrize("command", ["invariants", "mesh"])
def test_grid_takes_one_profile_record_per_row(tmp_path, monkeypatch, command):
    calls = []
    original = profile_module.profile_point

    def counted(p, u):
        calls.append(u)
        return original(p, u)

    # the grid walk and everything it calls per point, wherever it is bound
    for module in (cli, surface_module, invariants_module):
        if hasattr(module, "profile_point"):
            monkeypatch.setattr(module, "profile_point", counted)
    fields = ["--fields", "K,lambda"] if command == "mesh" else []
    rc = cli.main([command, "--spec", "direct f=sqrt(u+1) phi=1", "--u", "0:3",
                   "--v", "0:6", "--grid", "3x4", *fields,
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert calls == [0.0, 1.5, 3.0]


def test_value_types_have_no_instance_dict():
    s = MeridianSurface(ProfileCurve(lambda u: jsqrt(u + 1.0), (0.0, 3.0)),
                        Directrix(lambda v: 2.0 + jcos(v), (0.0, 6.0)))
    for obj in (Jet(1.0), Vec4(1.0, 0.0, 0.0, 0.0), point_data(s, 1.0, 2.0),
                profile_point(s.profile, 1.0), directrix_point(s.directrix, 2.0)):
        assert not hasattr(obj, "__dict__")


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("slot", range(4))
def test_vec4_rejects_each_non_finite_component(bad, slot):
    parts = [1.0, 2.0, 3.0, 4.0]
    parts[slot] = bad
    with pytest.raises(DomainError):
        Vec4(*parts)
