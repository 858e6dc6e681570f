"""The boundaries a traced benchmark run must see fire, and those it must
see bypassed, wrapped as perfbench/tracer.py wraps them: one run of a
command loads the modules it imports, every meridian4 module attribute
bound to the function is then replaced by a counting wrapper, and a second
run must call it, or must not."""

import importlib
import sys

import pytest

from meridian4.cli import main

MESH = ["mesh", "--spec", "direct f=sqrt(u+1) phi=1", "--u", "0:3", "--v", "0:6.28",
        "--grid", "3x4", "--fields", "K,H_norm"]
INVARIANTS = ["invariants", "--spec", "constant-gauss K=1 alpha=1 beta=0 phi=2+cos(v)",
              "--u", "0.1:1.4", "--v", "0:6.28", "--grid", "3x3"]
FAMILY = ["family", "--spec", "chen b=1 c=1 branch=+", "--f0", "1.5", "--u", "0:0.5:0.1"]
VERIFY = ["verify", "--spec", "constant-mean a=0.5 b=2 C=0 eps=+ branch=+", "--f0", "0.6",
          "--u", "0:0.15", "--v", "0:0.3", "--grid", "2x2"]


def _calls_on_rerun(tmp_path, monkeypatch, module, name, argv):
    """The calls of module.name in a second run of argv, which exits as the
    first did. The module is imported first where the command does not load
    it, so a command that would load it later still runs the wrapper."""
    argv = argv + ["--out", str(tmp_path / "out")]
    code = main(argv)
    original = getattr(importlib.import_module(f"meridian4.{module}"), name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "meridian4" or mod_name.startswith("meridian4.")):
            for attribute, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attribute, counted)
    assert main(argv) == code
    return calls


@pytest.mark.parametrize("module, name, argv", [
    ("surface", "embed", MESH),
    ("invariants", "eight_invariants", INVARIANTS),
    ("families", "generate", FAMILY),
    ("families", "generate", VERIFY),
    ("invariants", "oracle_invariants", VERIFY),
    ("verification", "sample_general_points", VERIFY)],
    ids=["mesh-embed", "invariants-eight_invariants", "family-generate",
         "verify-generate", "verify-oracle_invariants", "verify-sample_general_points"])
def test_a_traced_boundary_fires(tmp_path, monkeypatch, module, name, argv):
    assert _calls_on_rerun(tmp_path, monkeypatch, module, name, argv)


# the layers each workload bypasses: perfbench's `zero` lists, which only
# perfbench/tests checks otherwise
BYPASSED = [(argv[0], module, name, argv) for argv, names in (
    (MESH, ("families.generate", "families.integrate_autonomous",
            "invariants.oracle_invariants")),
    (INVARIANTS, ("profile.g_from_f", "families.integrate_autonomous",
                  "invariants.oracle_invariants")),
    (VERIFY, ("profile.g_from_f",)),
    (FAMILY, ("invariants.oracle_invariants",)),
) for module, name in (n.split(".") for n in names)]


@pytest.mark.parametrize("module, name, argv", [b[1:] for b in BYPASSED],
                         ids=[f"{c}-{m}.{n}" for c, m, n, _ in BYPASSED])
def test_a_bypassed_boundary_is_not_called(tmp_path, monkeypatch, module, name, argv):
    assert _calls_on_rerun(tmp_path, monkeypatch, module, name, argv) == []
