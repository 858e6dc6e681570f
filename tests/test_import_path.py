"""The package never loads numpy: not on import, and not through a full verify.
Importing it loads no module from outside the package beyond those that
argparse, ast, json and random load, and neither dataclasses, inspect nor
typing."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PROBE = """
import sys
import meridian4, meridian4.cli
print("numpy" in sys.modules)
from meridian4.cli import build_surface, parse_family_spec
spec, phi = parse_family_spec("parallel-a c=1 d=1 a=0 sign=+")
gen = build_surface(spec, phi, None, (0.0, 3.0), (0.0, 6.28))
report = meridian4.verify_generated(gen, 4)
print(report.passed, "numpy" in sys.modules)
"""

EXTRA_MODULES = """
import sys
import argparse, ast, json, random
before = set(sys.modules)
import meridian4, meridian4.cli
print(sorted(m for m in set(sys.modules) - before
             if m.partition(".")[0] != "meridian4"))
print("dataclasses" in sys.modules, "inspect" in sys.modules)
"""

# run without site, which loads typing on some installations
TYPING = """
import sys
import meridian4, meridian4.cli
print("typing" in sys.modules)
"""


def run(code, *flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *flags, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.splitlines()


def test_import_path_loads_no_numpy():
    out = run(PROBE)
    assert out[0] == "False"         # import meridian4, meridian4.cli
    assert out[1] == "True False"    # verify_generated ran, without numpy


def test_import_loads_nothing_beyond_the_standard_modules_it_needs():
    assert run(EXTRA_MODULES) == ["[]", "False False"]


def test_import_loads_no_typing():
    assert run(TYPING, "-S") == ["False"]
