"""Set-up probe, run in a fresh interpreter with `src` on PYTHONPATH: times
`import meridian4, meridian4.cli`, then runs the calibration kernel twice and
prints the raw seconds and the seconds at reference speed. The kernel runs
after the import only, because loading it first would pre-import
`dataclasses` and hide that part of the package's set-up."""

import time

start = time.perf_counter()
import meridian4, meridian4.cli  # noqa: E401,E402,F401
elapsed = time.perf_counter() - start

from calibration import kernel_seconds, rescale  # noqa: E402

print(elapsed, rescale(elapsed, kernel_seconds(), kernel_seconds()))
