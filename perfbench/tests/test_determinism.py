"""Determinism of the benchmark's counters and of the CLI outputs it checks.

Two fresh interpreters (with different hash seeds) each run one checked
untraced pass and one traced pass of every workload. Their trace counters
must be identical, their outputs byte-identical, the boundaries each
workload must reach must fire, and the boundaries predicted to be bypassed
must read zero. Run with `python3 -m pytest perfbench/tests`; it takes about
a minute on 2 cores.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from workloads import WORKLOADS  # noqa: E402


def fingerprint(name, outdir):
    """Counts of one traced pass and digests of the untraced outputs."""
    from tracer import Tracer
    from worker import Run

    run = Run(WORKLOADS[name], 0, outdir)
    run.one_pass()
    digests = [[hashlib.sha256(f).hexdigest() if f is not None else None for f in files]
               for files in run.reference]
    tracer = Tracer()
    tracer.install()
    try:
        run.one_pass()
    finally:
        tracer.uninstall()
    counts, _, _ = tracer.layer_metrics(run.points)
    return {"counts": counts, "digests": digests, "failed": run.failed}


def _fingerprint_in_fresh_process(name, outdir, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, __file__, name, outdir], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_and_outputs_repeat(name, tmp_path):
    first = _fingerprint_in_fresh_process(name, str(tmp_path / "a"), 1)
    second = _fingerprint_in_fresh_process(name, str(tmp_path / "b"), 2)
    assert first["failed"] == 0 and second["failed"] == 0
    assert first["digests"] == second["digests"]
    assert first["counts"] == second["counts"]
    workload = WORKLOADS[name]
    assert all(first["counts"][m] > 0 for m in workload.fires), first["counts"]
    assert all(first["counts"][m] == 0 for m in workload.zero), first["counts"]


if __name__ == "__main__":
    print(json.dumps(fingerprint(sys.argv[1], sys.argv[2])))
