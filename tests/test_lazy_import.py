"""Each command loads only the modules it runs. The package loads its errors
alone and every other public name on first use (PEP 562); the CLI imports
a module inside the command that needs it, and no such import sits on a
hot path."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import meridian4

SRC = pathlib.Path(meridian4.__file__).parent
COMMAND_MODULES = ("verification", "invariants", "expressions", "odeint")

# what `from meridian4 import *` bound when the package imported every
# submodule eagerly, less the submodule names that those imports bound
PUBLIC = {
    "Chen", "ConstantGauss", "ConstantK", "ConstantMean",
    "DegenerateDirectrixError", "Directrix", "DomainError", "ExpressionError",
    "FamilySpec", "FlatPointError", "GeneratedSurface", "InvariantRecord", "Jet",
    "MarginallyTrappedError", "MeridianError", "MeridianSurface", "ParallelA",
    "ParallelB", "PointCase", "PointFrames", "ProfileCurve",
    "ProfileInvariantError", "QuadratureLimitError", "SpecMismatchError",
    "Vec4", "VerificationReport", "compile_expression",
    "constant_kappa_directrix", "dual_frames", "eight_invariants", "embed", "frames",
    "g_from_f", "generate", "integrate_autonomous", "jet_eval", "minkowski_dot",
    "oracle_invariants", "point_data", "variable", "verify_generated",
}

# the functions that may import: the package's lazy lookup, and a command or
# a first use that needs a module the others do not
FUNCTION_IMPORTS = {
    ("__init__", "__getattr__"), ("cli", "build_surface"), ("cli", "cmd_family"),
    ("cli", "cmd_invariants"), ("cli", "cmd_mesh"), ("cli", "cmd_verify"),
    ("families", "integrate_autonomous"),
    ("profile", "_quadrature_g"),
}

PROBE = """
import json, sys
before = set(sys.modules)
import meridian4{cli}
{run}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _last_line(tmp_path, code):
    """The last line that code prints in a fresh interpreter without site."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, cwd=tmp_path,
                         check=True, capture_output=True, text=True).stdout
    return out.splitlines()[-1]


def loaded(tmp_path, cli=True, argv=None):
    """The modules a fresh interpreter loads for `import meridian4` (with
    `meridian4.cli` when cli) and then, when argv is given, `main(argv)`,
    which must exit 0."""
    run = "" if argv is None else f"assert meridian4.cli.main({argv!r}) == 0"
    code = PROBE.format(cli=", meridian4.cli" if cli else "", run=run)
    return set(json.loads(_last_line(tmp_path, code)))


def package_modules(modules):
    return {m.partition(".")[2] for m in modules if m.startswith("meridian4.")}


def test_the_package_loads_only_its_errors(tmp_path):
    assert {m for m in loaded(tmp_path, cli=False)
            if m.partition(".")[0] == "meridian4"} == {"meridian4", "meridian4.errors"}


def test_the_cli_loads_no_module_that_only_some_commands_run(tmp_path):
    modules = loaded(tmp_path)
    assert package_modules(modules) & set(COMMAND_MODULES) == set()
    assert {"ast", "random"} & modules == set()


def test_the_cli_parses_without_argparse(tmp_path):
    # one table-driven loop reads argv: no argparse, nor the gettext it loads
    assert {"argparse", "gettext"} & loaded(tmp_path) == set()


def test_the_cli_loads_no_json(tmp_path):
    # json is imported by the commands that write it; PROBE imports json
    # itself before its snapshot, so this asks sys.modules directly
    assert _last_line(tmp_path, "import sys, meridian4.cli; "
                                "print('json' in sys.modules)") == "False"


@pytest.mark.parametrize("argv, loads", [
    (["family", "--spec", "constant-gauss K=1 alpha=1 beta=0", "--u", "0.1:0.5",
      "--out", "f.csv"], set()),
    (["invariants", "--spec", "constant-gauss K=1 alpha=1 beta=0 phi=2+cos(v)",
      "--u", "0.1:1.4", "--v", "0:6", "--grid", "3x3", "--out", "i.csv"],
     {"expressions", "invariants"}),
    (["family", "--spec", "chen b=1 c=1 branch=+", "--f0", "1.5", "--u", "0:0.5",
      "--v", "0:0.5", "--out", "f.csv"], set()),
    (["family", "--spec", "constant-k a=1 b=-1 c=0.5 branch=+", "--f0", "0.5",
      "--u", "0:0.5", "--out", "f.csv"], set()),
    (["family", "--spec", "parallel-b a=1 c=1 b=-2", "--f0", "1", "--u", "0:0.5",
      "--out", "f.csv"], {"odeint"}),
    (["verify", "--spec", "constant-mean a=0.5 b=2 C=0 eps=+ branch=+", "--f0", "0.6",
      "--u", "0:0.15", "--v", "0:0.3", "--grid", "5x4"],
     {"verification", "invariants", "odeint"}),
    # g's pass runs odeint, and only --fields reads the invariant records
    (["mesh", "--spec", "direct f=sqrt(u+1) phi=1", "--u", "0:3", "--v", "0:6.28",
      "--grid", "3x4", "--out", "m.json"], {"expressions", "odeint"}),
    (["mesh", "--spec", "direct f=sqrt(u+1) phi=1", "--u", "0:3", "--v", "0:6.28",
      "--grid", "3x4", "--fields", "K,H_norm", "--out", "m.json"],
     {"expressions", "invariants", "odeint"})],
    ids=["closed-form-family", "invariants-phi", "chen-family", "constant-k-family",
         "ode-family", "verify", "mesh", "mesh-fields"])
def test_a_command_loads_the_modules_it_runs(tmp_path, argv, loads):
    modules = loaded(tmp_path, argv=argv)
    assert package_modules(modules) & set(COMMAND_MODULES) == loads
    assert ("ast" in modules) == ("expressions" in loads)
    assert {"argparse", "gettext"} & modules == set()


def test_every_lazy_name_is_exported_by_its_submodule():
    stale = [(name, module) for name, module in meridian4._LAZY.items()
             if name not in importlib.import_module(f"meridian4.{module}").__all__]
    assert stale == []


def test_every_package_name_resolves():
    assert [n for n in meridian4.__all__ if not hasattr(meridian4, n)] == []
    for name, module in meridian4._LAZY.items():
        defining = importlib.import_module(f"meridian4.{module}")
        assert getattr(meridian4, name) is getattr(defining, name)


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from meridian4 import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        meridian4.no_such_name
    assert not hasattr(meridian4, "no_such_name")


def _function_imports(node, function=None, in_loop=False):
    """(function, in a loop) for each import statement under node that sits
    inside a function, named by the innermost def around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _function_imports(child, child.name, in_loop)
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            if function is not None:
                yield function, in_loop
        else:
            yield from _function_imports(
                child, function,
                in_loop or isinstance(child, (ast.For, ast.AsyncFor, ast.While)))


def _all_function_imports():
    return [(path.stem, function, in_loop) for path in sorted(SRC.glob("*.py"))
            for function, in_loop in _function_imports(ast.parse(path.read_text()))]


def test_function_level_imports_are_the_listed_ones():
    # exactly the list, so an entry that no longer imports goes too
    assert {(m, f) for m, f, _ in _all_function_imports()} == FUNCTION_IMPORTS


def test_no_import_runs_inside_a_loop():
    assert [(m, f) for m, f, in_loop in _all_function_imports() if in_loop] == []
