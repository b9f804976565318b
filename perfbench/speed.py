"""Follow the host's speed, so that timings can be scaled to a reference speed.

The hosts this benchmark runs on drift between speed states about 1.7x
apart, in bursts from milliseconds to tens of seconds, which moves raw
medians by more than any useful bound. Two fixed kernels that do not touch
hardycheck are timed next to the measured work; a time measured while the
kernel ran at a given speed is scaled by the kernel's reference time over
its measured time. Scaled times read as wall times on the reference host
(a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4) in its fast state.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy

KERNEL_REF_NS = 450_000  # speed_kernel
#: start_kernel per code: a bare start follows a CLI process best, a start
#: importing numpy follows a worker's set-up best.
START_REF_NS = {"pass": 40_000_000, "import numpy": 120_000_000}

_A = numpy.array([0.6, 0.8], dtype=complex)
_B = numpy.array([0.8, -0.6], dtype=complex)


def speed_kernel() -> None:
    """Fixed dict, tuple and small-numpy work, like an in-process operation."""
    d = {}
    for i in range(100):
        d[(i, i & 7)] = (i * 2.5, str(i))
    sum(v[0] for v in d.values())
    for _ in range(12):
        abs(numpy.vdot(numpy.kron(_A, _B), numpy.kron(_B, _A)))


def time_kernel() -> int:
    t0 = time.perf_counter_ns()
    speed_kernel()
    return time.perf_counter_ns() - t0


def start_kernel(code: str, env: dict | None = None) -> int:
    """Wall ns of a cold interpreter running ``code``, for process-level work."""
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter_ns() - t0


def scaled_times(loop: dict) -> list[float]:
    """Operation times of a worker loop scaled to the reference speed.

    ``loop["cal"]`` holds (operations done, kernel ns) samples. The
    operations between two samples are scaled by ``loop["ref_ns"]`` over the
    median of the nearest three samples.
    """
    scaled = [float(dt) for dt in loop["dts"]]
    cal = loop["cal"]
    for j, (at, _) in enumerate(cal):
        start = cal[j - 1][0] if j else 0
        end = at if j + 1 < len(cal) else len(scaled)
        f = loop["ref_ns"] / statistics.median(ns for _, ns in cal[max(j - 1, 0) : j + 2])
        scaled[start:end] = [dt * f for dt in scaled[start:end]]
    return scaled
