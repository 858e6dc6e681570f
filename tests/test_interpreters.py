"""Outputs are byte-identical on every supported Python: each other CPython
>= 3.10 on PATH runs the benchmark workloads' seed-0 commands (a verify,
the ODE and closed-form families, invariants and mesh), and its exit codes,
printed text and written files must equal those of the running interpreter.
The CLI needs no dependencies, so an interpreter without pytest runs it.
Skipped when no other interpreter is found."""

import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# run by each interpreter: the argv lists on stdin, [exit code, printed text]
# of each on stdout
_RUN = """
import contextlib, io, json, sys
from meridian4.cli import main
out = []
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = main(argv)
    out.append([rc, buf.getvalue()])
json.dump(out, sys.stdout)
"""


def _env():
    """The environment of a child interpreter: src on its path, no bytecode
    written, and every installed pyenv version named, since a pyenv shim
    runs only the versions PYENV_VERSION names."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    pyenv = shutil.which("pyenv")
    if pyenv:
        versions = subprocess.run([pyenv, "versions", "--bare"], capture_output=True,
                                  text=True, timeout=60).stdout.split()
        if versions:
            env["PYENV_VERSION"] = ":".join(versions)
    return env


def _other_interpreters(env):
    """{(major, minor): executable} of each CPython >= 3.10 on PATH that
    runs and is not the running interpreter's version."""
    found = {}
    probe = "import sys; print(sys.implementation.name, *sys.version_info[:2])"
    for minor in range(10, 30):
        exe = shutil.which(f"python3.{minor}")
        if exe is None:
            continue
        try:
            r = subprocess.run([exe, "-c", probe], capture_output=True, text=True,
                               env=env, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if r.returncode == 0 and r.stdout.split() == ["cpython", "3", str(minor)] \
                and (3, minor) != sys.version_info[:2]:
            found[(3, minor)] = exe
    return found


def _run_workloads(exe, outdir, env):
    """Run every workload's seed-0 commands under exe, writing into outdir:
    ([exit code, printed text] of each, {file name: bytes})."""
    ops = [op for w in workloads.WORKLOADS.values()
           for op in w.build(0, str(outdir))[0]]
    r = subprocess.run([exe, "-c", _RUN], input=json.dumps([op.argv for op in ops]),
                       capture_output=True, text=True, env=env, timeout=600)
    assert r.returncode == 0, r.stderr
    results = json.loads(r.stdout)
    assert [rc for rc, _ in results] == [op.expected_rc for op in ops]
    files = {os.path.basename(path): pathlib.Path(path).read_bytes()
             for op in ops for path in op.files}
    return results, files


def test_outputs_are_identical_on_every_supported_python(tmp_path):
    env = _env()
    others = _other_interpreters(env)
    if not others:
        pytest.skip("no other CPython >= 3.10 on PATH")
    (tmp_path / "ref").mkdir()
    want = _run_workloads(sys.executable, tmp_path / "ref", env)
    assert want[1] and all(want[1].values())
    for version, exe in sorted(others.items()):
        outdir = tmp_path / ".".join(map(str, version))
        outdir.mkdir()
        got = _run_workloads(exe, outdir, env)
        assert got[0] == want[0], version
        assert sorted(got[1]) == sorted(want[1]), version
        differ = [name for name in want[1] if got[1][name] != want[1][name]]
        assert differ == [], version
