"""One benchmark run of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE OUTDIR

with the package's `src` directory on PYTHONPATH. Runs warm-up passes (the
first one's outputs are checked and kept as the reference), then measured
passes until SECONDS have elapsed; every later pass must reproduce the
reference outputs byte for byte. Pass times are reported raw and rescaled to
reference machine speed (calibration.py). With TRACE=1 half of the time runs untraced
and half traced, which gives the per-layer numbers and the tracing overhead.
Prints one JSON object as its last line.
"""

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy
import meridian4.cli

from calibration import kernel_seconds, rescale
from tracer import Tracer
from workloads import WORKLOADS

WARMUP_PASSES = 2   # the first passes in a process run 20-35% slower
MIN_PASSES = 5      # measured passes per timing, whatever SECONDS is


def run_pass(ops):
    """Run the invocations one after another; returns (raw seconds, seconds
    at reference speed, exit codes). The pass time is the sum of the main()
    calls; the calibration kernel runs around each of them. An exception
    counts as exit None."""
    for op in ops:
        for path in op.files:
            if os.path.exists(path):
                os.remove(path)
    codes, wall, calibrated = [], 0.0, 0.0
    kernel = kernel_seconds()
    with contextlib.redirect_stdout(io.StringIO()):
        for op in ops:
            start = time.perf_counter()
            try:
                codes.append(meridian4.cli.main(op.argv))
            except Exception:
                traceback.print_exc()
                codes.append(None)
            elapsed = time.perf_counter() - start
            before, kernel = kernel, kernel_seconds()
            wall += elapsed
            calibrated += rescale(elapsed, before, kernel)
    return wall, calibrated, codes


def read_outputs(ops):
    out = []
    for op in ops:
        files = []
        for path in op.files:
            try:
                with open(path, "rb") as fh:
                    files.append(fh.read())
            except OSError:
                files.append(None)
        out.append(files)
    return out


class Run:
    def __init__(self, workload, seed, outdir):
        self.workload = workload
        os.makedirs(outdir, exist_ok=True)
        self.ops, self.points = workload.build(seed, outdir)
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.worst_ratio = 0.0

    def _fail(self, i, why):
        self.failed += 1
        print(f"{self.workload.name}: {self.ops[i].argv[0]} #{i} failed: {why}",
              file=sys.stderr)

    def one_pass(self):
        """Run and check one pass; returns its (raw, calibrated) seconds."""
        wall, calibrated, codes = run_pass(self.ops)
        outputs = read_outputs(self.ops)
        first = self.reference is None
        for i, (op, code) in enumerate(zip(self.ops, codes)):
            self.attempted += 1
            if code != op.expected_rc:
                self._fail(i, f"exit code {code}, expected {op.expected_rc}")
            elif first:
                try:
                    ratios = [err / tol for err, tol in op.check(op.out)]
                except (OSError, ValueError, KeyError, IndexError,
                        TypeError, ZeroDivisionError) as exc:
                    ratios = [float("inf")]
                    print(f"check error: {exc!r}", file=sys.stderr)
                worst = max(ratios)
                self.worst_ratio = max(self.worst_ratio, worst)
                if not worst <= 1.0:
                    self._fail(i, f"output check error/tolerance = {worst!r}")
            elif outputs[i] != self.reference[i]:
                self._fail(i, "output differs from the first pass")
        if first:
            self.reference = outputs
        return wall, calibrated

    def timed(self, seconds, trace=None):
        """Passes for `seconds`; returns raw times, calibrated times and,
        when tracing, each pass's layer metrics."""
        walls, calibrated, layers = [], [], []
        end = time.perf_counter() + seconds
        while len(walls) < MIN_PASSES or time.perf_counter() < end:
            if trace is not None:
                trace.reset()
            wall, cal = self.one_pass()
            walls.append(wall)
            calibrated.append(cal)
            if trace is not None:
                layers.append(trace.layer_metrics(self.points))
        return walls, calibrated, layers


def main():
    name, seed, seconds, trace, outdir = sys.argv[1:6]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    workload = WORKLOADS[name]
    run = Run(workload, seed, outdir)
    warmup = [wall for wall, _ in (run.one_pass() for _ in range(WARMUP_PASSES))]
    result = {"python": platform.python_version(), "numpy": numpy.__version__,
              "nproc": os.cpu_count(), "warmup_s": warmup}
    if not trace:
        result["raw_wall_s"], result["wall_s"], _ = run.timed(seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        walls, untraced, _ = run.timed(seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            _, traced, layers = run.timed(seconds / 2, tracer)
        finally:
            tracer.uninstall()
        counts = [count for count, _, _ in layers]
        if any(c != counts[0] for c in counts):
            print("trace counts differ between passes", file=sys.stderr)
            run.failed += 1
        missing = [m for m in workload.fires if not counts[0][m]]
        if missing:
            print(f"{name}: boundaries that must fire recorded zero calls: "
                  f"{', '.join(missing)}", file=sys.stderr)
            sys.exit(3)
        count, ratio, seconds = layers[0]
        metrics = {**count, **ratio}
        for key in seconds:
            metrics[key] = statistics.median(s[key] for _, _, s in layers)
        metrics["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics["checks.error_rate"] = run.failed / run.attempted
        metrics["checks.worst_err_ratio"] = run.worst_ratio
        result.update(raw_wall_s=walls, wall_s=untraced, traced_wall_s=traced,
                      layers=metrics,
                      zero_violations=[m for m in workload.zero if counts[0][m]])
        with open(os.path.join(outdir, "spans.jsonl"), "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    result.update(attempted=run.attempted, failed=run.failed,
                  worst_err_ratio=run.worst_ratio)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
