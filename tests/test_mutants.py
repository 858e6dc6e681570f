"""Mutant score of verify: a fixed list of one-line faults in the closed
forms, the point records, the frames, the jets and the closed-form
profiles, each run through verify_generated on a fixed set of specs, and
the table of the (fault, spec) cells that verify catches (DeMillo, Lipton &
Sayward, IEEE Computer 11(4), 1978).

A fault is applied in-process: the source of the function (or the class
holding the method) is read from its module, the one-line change made,
the patched copy compiled against the module's own globals, and the result
bound wherever a meridian4 module binds the original, in a module-level
table too. No file under src/ changes. A cell is caught when the report
fails or building and verifying the surface raises. A change to a check
may turn an uncaught cell into a caught one, never the reverse."""

import ast
import importlib
import inspect
import math
import random
import sys

import pytest

from meridian4.cli import build_surface, parse_family_spec
from meridian4.verification import SAMPLE_SEED, sample_general_points, verify_generated

TWO_PI = 2.0 * math.pi
N_POINTS = 10

# name -> (spec text, f0, u range, v range). Between them: both signs of
# <H,H> and of f', q != 0 (but on parallel-a, whose closed form is q = 0),
# kappa_dot != 0, a directrix of constant curvature in closed form (b > 0)
# and exact (b < 0), an ODE profile and every closed-form family.
SPECS = {
    "cmc": ("constant-mean a=0.5 b=2 C=0 eps=+ branch=+", 0.6, (0.0, 0.15), (0.0, 0.3)),
    "gauss-": ("constant-gauss K=-1 alpha=1 beta=0.5 phi=2+cos(v)", None, (0.0, 1.0),
               (0.0, TWO_PI)),
    "gauss4": ("constant-gauss K=4 alpha=1 beta=0.5", None, (0.3, 0.7), (0.0, TWO_PI)),
    "cos": ("direct f=cos(u) phi=2+cos(v)", None, (0.6, 1.0), (0.0, TWO_PI)),
    "k": ("constant-k a=1 b=1 c=0.5 branch=-", 0.5, (0.0, 1.0), (0.0, 0.3)),
    "chen": ("chen b=1 c=1 branch=+", 1.5, (0.0, 1.5), (0.0, 0.5)),
    "pa": ("parallel-a c=1 d=1 phi=2+cos(v)", None, (0.0, 1.0), (0.0, TWO_PI)),
}
# <H,H> and f' at the sample points of each spec, as (signs of eps, signs of f')
SIGNS = {"cmc": ({1}, {1}), "gauss-": ({-1}, {1}), "gauss4": ({-1, 1}, {-1}),
         "cos": ({-1, 1}, {-1}), "k": ({1}, {1}), "chen": ({-1}, {1}), "pa": ({1}, {1})}

# name -> (module, function or Class.method, text, its replacement)
FAULTS = {
    "u_terms:q_du": ("invariants", "_u_terms", "3.0 * fp * fpp", "2.0 * fp * fpp"),
    "u_terms:H_n2": ("invariants", "_u_terms", "-q / two_ffp", "q / two_ffp"),
    "eight:nu": ("invariants", "eight_invariants", "nu = root / two_ffp",
                 "nu = root / two_f"),
    "eight:lam": ("invariants", "eight_invariants", "f2fpp2 - fp4", "f2fpp2 + fp4"),
    "eight:mu": ("invariants", "eight_invariants", "mu = kappa * fpp / root",
                 "mu = kappa * p.fp / root"),
    "eight:cross": ("invariants", "eight_invariants", "cross = c.kappa_dot * q",
                    "cross = c.kappa * q"),
    "eight:k": ("invariants", "eight_invariants", "k = nkm2 * kappa2 / f2",
                "k = nkm2 * kappa / f2"),
    # the case rule that combine and the kernel run
    "combine:disc": ("surface", "classify_row", "disc = (kappa * kappa) * fp2 - q2",
                     "disc = (kappa * kappa) * fp - q2"),
    "frames:n1": ("surface", "frames", "(c.phid * sv + c.phi * cv) / rD",
                  "(c.phid * sv - c.phi * cv) / rD"),
    "frames:n2": ("surface", "frames", "- 2.0 * p.gp) / 2.0", "- p.gp) / 2.0"),
    "frames:l": ("surface", "frames", "rb, rl = 1.0 / root, eps / root",
                 "rb, rl = 1.0 / root, 1.0 / root"),
    "profile:q": ("profile", "profile_point", "fj.f * fpp + fp**2", "fj.f * fpp + fp"),
    "profile:gp": ("profile", "profile_point", "-0.5 / fp", "0.5 / fp"),
    "profile:K": ("profile", "profile_point", "-fpp / fj.f", "fpp / fj.f"),
    "directrix:num": ("profile", "directrix_point", "- 2.0 * pj.d1**2 - pj.f**2",
                      "- pj.d1**2 - pj.f**2"),
    "directrix:num_dot": ("profile", "directrix_point", "- 3.0 * pj.d1 * pj.d2",
                          "- 2.0 * pj.d1 * pj.d2"),
    "directrix:D_dot": ("profile", "directrix_point", "D_dot = 2.0 * pj.d1 * pj.d2",
                        "D_dot = pj.d1 * pj.d2"),
    "directrix:phidd": ("profile", "directrix_point", "pj.d1, pj.d2, pj.d3",
                        "pj.d1, pj.d2 * 1.001, pj.d3"),
    "directrix:phiddd": ("profile", "directrix_point", "pj.d2, pj.d3, num",
                         "pj.d2, pj.d3 * 1.001, num"),
    "jets:_compose:d3": ("jets", "_compose", "+ 3.0 * g2 * u.d1 * u.d2",
                         "+ 2.0 * g2 * u.d1 * u.d2"),
    "jets:jcos:g3": ("jets", "jcos", "_compose(x, c, -s, -c, s)",
                     "_compose(x, c, -s, -c, -s)"),
    "jets:jsin:g3": ("jets", "jsin", "_compose(x, s, c, -s, -c)",
                     "_compose(x, s, c, -s, c)"),
    "ConstantGauss.solve": ("families", "ConstantGauss.solve", "be * jets.jsin(r * x)",
                            "be * jets.jsin(K * x)"),
    "ConstantK.solve": ("families", "ConstantK.solve", "kappa = f0 < rho, -alpha * rho",
                        "kappa = f0 < rho, alpha * rho"),
    "Chen.solve": ("families", "Chen.solve", "jets.jexp(2.0 * A * (x - u0))",
                   "jets.jexp(A * (x - u0))"),
    "ParallelA.solve": ("families", "ParallelA.solve", "jets.jsqrt(c * x + dd)",
                        "jets.jsqrt(c * x * x + dd)"),
}

# fault -> the specs on which verify catches it
CAUGHT = {
    "Chen.solve": {"chen"},
    "ConstantGauss.solve": {"gauss4"},
    "ConstantK.solve": {"k"},
    "ParallelA.solve": {"pa"},
    "combine:disc": set(SPECS),
    "directrix:D_dot": {"chen", "cmc", "cos", "gauss-", "k"},
    "directrix:num": {"chen", "cmc", "cos", "gauss-", "k", "pa"},
    "directrix:num_dot": {"chen", "cmc", "cos", "gauss-", "k"},
    # phi'' and phi''' seed the oracle's partials in v; under gauss4's
    # phi = 1 both are 0, which the fault's factor keeps 0
    "directrix:phidd": set(SPECS) - {"gauss4"},
    "directrix:phiddd": set(SPECS) - {"gauss4"},
    "eight:cross": {"chen", "cmc", "cos", "gauss-", "gauss4", "k"},
    "eight:k": {"cmc", "cos", "gauss-", "gauss4", "pa"},
    "eight:lam": set(SPECS),
    "eight:mu": set(SPECS),
    "eight:nu": set(SPECS),
    "frames:l": {"chen", "cos", "gauss-", "gauss4"},
    "frames:n1": set(SPECS),
    "frames:n2": set(SPECS),
    "jets:_compose:d3": {"chen", "cmc", "k"},
    # the jet3:phi row catches it on parallel-a's phi = 2 + cos(v), which
    # the stencil oracle did not
    "jets:jcos:g3": set(SPECS),
    "jets:jsin:g3": {"chen", "cmc", "gauss4", "k"},
    "profile:K": set(SPECS),
    "profile:gp": set(SPECS),
    "profile:q": set(SPECS),
    "u_terms:H_n2": {"chen", "cmc", "cos", "gauss-", "gauss4", "k"},
    "u_terms:q_du": set(SPECS),
}


def _patched(module, qualname, old, new):
    """(owner, attribute, original, patched) of one fault: the top-level
    definition holding qualname, with old replaced by new, compiled against
    the module's globals."""
    source = inspect.getsource(module)
    top, _, method = qualname.partition(".")
    node = next(n for n in ast.parse(source).body if getattr(n, "name", None) == top)
    text = ast.get_source_segment(source, node)
    assert text.count(old) == 1, (qualname, old)
    scope = {}
    exec(compile(text.replace(old, new), module.__file__, "exec"), vars(module), scope)
    if method:
        owner = getattr(module, top)
        return owner, method, vars(owner)[method], vars(scope[top])[method]
    return module, top, getattr(module, top), scope[top]


def _apply(monkeypatch, fault):
    module_name, qualname, old, new = FAULTS[fault]
    module = importlib.import_module(f"meridian4.{module_name}")
    owner, attribute, original, patched = _patched(module, qualname, old, new)
    if owner is not module:
        monkeypatch.setattr(owner, attribute, patched)
        return
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "meridian4" or name.startswith("meridian4.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, patched)
            elif isinstance(value, dict):   # a table of functions (expressions')
                for key, entry in list(value.items()):
                    if entry is original:
                        monkeypatch.setitem(value, key, patched)


def _caught(spec_name):
    """Whether verify catches what is patched in: its report fails, or
    building or verifying the surface raises."""
    text, f0, u_range, v_range = SPECS[spec_name]
    try:
        spec, phi = parse_family_spec(text)
        report = verify_generated(build_surface(spec, phi, f0, u_range, v_range),
                                  N_POINTS)
    except Exception:   # a fault may break anything; a raise is a catch
        return True
    return not report.passed


def test_every_spec_passes_unpatched_at_its_signs():
    for name, (text, f0, u_range, v_range) in SPECS.items():
        assert not _caught(name), name
        spec, phi = parse_family_spec(text)
        s = build_surface(spec, phi, f0, u_range, v_range).surface
        ds = [d for d, _ in sample_general_points(s, N_POINTS, random.Random(SAMPLE_SEED))]
        assert ({1 if d.disc > 0 else -1 for d in ds},
                {1 if d.p.fp > 0 else -1 for d in ds}) == SIGNS[name], name


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_the_catch_table(fault, monkeypatch):
    _apply(monkeypatch, fault)
    caught = {name for name in SPECS if _caught(name)}
    assert caught == CAUGHT[fault]
