"""The boundaries a traced benchmark run must see fire, wrapped as
perfbench/tracer.py wraps them: one run of a command loads the modules it
imports, every meridian4 module attribute bound to the function is then
replaced by a counting wrapper, and a second run must call it."""

import sys

import pytest

from meridian4.cli import main

VERIFY = ["verify", "--spec", "constant-mean a=0.5 b=2 C=0 eps=+ branch=+", "--f0", "0.6",
          "--u", "0:0.15", "--v", "0:0.3", "--grid", "2x2"]


@pytest.mark.parametrize("module, name, argv", [
    ("surface", "embed", ["mesh", "--spec", "direct f=sqrt(u+1) phi=1", "--u", "0:3",
                          "--v", "0:6.28", "--grid", "3x4", "--fields", "K,H_norm"]),
    ("invariants", "eight_invariants",
     ["invariants", "--spec", "constant-gauss K=1 alpha=1 beta=0 phi=2+cos(v)",
      "--u", "0.1:1.4", "--v", "0:6.28", "--grid", "3x3"]),
    ("families", "generate", ["family", "--spec", "chen b=1 c=1 branch=+", "--f0", "1.5",
                              "--u", "0:0.5:0.1"]),
    ("families", "generate", VERIFY),
    ("invariants", "oracle_invariants", VERIFY)],
    ids=["mesh-embed", "invariants-eight_invariants", "family-generate",
         "verify-generate", "verify-oracle_invariants"])
def test_a_traced_boundary_fires(tmp_path, monkeypatch, module, name, argv):
    argv = argv + ["--out", str(tmp_path / "out")]
    code = main(argv)
    original = getattr(sys.modules[f"meridian4.{module}"], name)
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
    assert calls
