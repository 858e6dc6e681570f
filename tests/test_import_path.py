"""The package never loads numpy: not on import, and not through a full verify."""

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


def test_import_path_loads_no_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[0] == "False"         # import meridian4, meridian4.cli
    assert out[1] == "True False"    # verify_generated ran, without numpy
