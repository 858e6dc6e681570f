"""Closed-loop benchmark of the meridian4 CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One client, one thread, one CLI
command at a time. Each run measures set-up time in fresh interpreters
(perfbench/probe.py), then runs the workload in another fresh interpreter
(perfbench/worker.py) so that import cost and peak memory belong to that run.
Times are reported at reference machine speed (perfbench/calibration.py);
the summary also shows them raw. --workload all runs every
workload in turn. Prints a readable summary and, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"} for one workload, or a
mapping from workload name to that object for `all`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 9       # fresh interpreters timed per run, after one warm-up
WORKER_TIMEOUT = 150   # seconds; the whole run must end within 180

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class BenchmarkError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_times():
    """(raw, calibrated) seconds for fresh interpreters to import meridian4
    and its CLI; the first probe only warms the bytecode and file caches."""
    raw, calibrated = [], []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py")], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchmarkError("cannot import meridian4:\n" + proc.stderr)
        seconds, rescaled = (float(x) for x in proc.stdout.split())
        raw.append(seconds)
        calibrated.append(rescaled)
    return raw[1:], calibrated[1:]


def quartiles(values):
    return statistics.quantiles(values, n=4)


def run_workload(name, seed, seconds, trace):
    raw_setup, setup = ([], []) if trace else setup_times()
    outdir = os.path.join(ROOT, ".perfbench_work", name)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed),
           repr(seconds), "1" if trace else "0", outdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{name}: worker exceeded {WORKER_TIMEOUT} s")
    if proc.returncode != 0:
        raise BenchmarkError(f"{name}: worker exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    wall = raw["wall_s"]
    summary = {
        "wall_s": (quartiles(wall), len(wall), "s"),
        "raw_wall_s": (quartiles(raw["raw_wall_s"]), len(wall), "s"),
        "error_rate": raw["failed"] / raw["attempted"],
        "worst_err_ratio": raw["worst_err_ratio"],
    }
    if trace:
        values = raw["layers"]
        summary["traced_wall_s"] = (quartiles(raw["traced_wall_s"]),
                                    len(raw["traced_wall_s"]), "s")
        summary["zero_violations"] = raw["zero_violations"]
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
    else:
        summary["setup_s"] = (quartiles(setup), len(setup), "s")
        summary["raw_setup_s"] = (quartiles(raw_setup), len(raw_setup), "s")
        summary["peak_rss_mb"] = raw["peak_rss_mb"]
        values = {"wall_s": statistics.median(wall), "setup_s": statistics.median(setup),
                  "peak_rss_mb": raw["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return result, summary, raw


def print_summary(name, seed, trace, result, summary, raw):
    print(f"== {name}  seed {seed}  trace {int(trace)}  (nproc {raw['nproc']}, "
          f"python {raw['python']}, numpy {raw['numpy']}; "
          f"warm-up passes dropped: {', '.join(f'{t:.3f}' for t in raw['warmup_s'])} s)")
    for key in ("wall_s", "raw_wall_s", "traced_wall_s", "setup_s", "raw_setup_s"):
        if key in summary:
            (q1, med, q3), n, unit = summary[key]
            print(f"  {key:<16} median {med:.4f} {unit}  quartiles {q1:.4f} .. {q3:.4f}  "
                  f"n={n}")
    if "peak_rss_mb" in summary:
        print(f"  {'peak_rss_mb':<16} {summary['peak_rss_mb']:.1f} MB")
    print(f"  {'error_rate':<16} {summary['error_rate']:.4g} "
          f"({result['failed']} of {result['attempted']} invocations failed)")
    print(f"  {'worst_err_ratio':<16} {summary['worst_err_ratio']:.4g} "
          "(largest output-check error / tolerance)")
    if trace:
        for key, m in result["metrics"].items():
            print(f"  {key:<40} {m['value']:.6g} {m['unit']}")
        if summary["zero_violations"]:
            print(f"  predicted-zero boundaries that fired: {summary['zero_violations']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "meridian4", "cli.py")):
        print("error: no meridian4 sources under src/ in this checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, summary, raw = run_workload(name, args.seed, args.seconds,
                                                bool(args.trace))
            print_summary(name, args.seed, args.trace, result, summary, raw)
            results[name] = result
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
