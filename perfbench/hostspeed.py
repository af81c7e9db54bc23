"""Host-speed probe: a fixed piece of work timed between scenario runs.

On a shared host the same code runs up to ~40% slower for stretches of
seconds to minutes, and process CPU time slows with it, so the slowdown is
the host's, not descheduling.  Those stretches outlast a run, so no
statistic taken over one run's scenario times removes them.  The probe is
timed before every scenario and once more at the end; a run's timings are
scaled by ``REFERENCE_S`` over the run's mean probe time, which gives them
in seconds at the speed the host had when ``REFERENCE_S`` was measured.
The probe is the benchmark's own code, so a change to the program does not
move it and still shows in full in the scaled times.

The probe mixes a pure-Python loop with small numpy matrix products, as the
workloads mix interpreter-bound solvers with numpy linear algebra.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# mean probe time on the 2-core 2.1 GHz Xeon VM the benchmark was tuned on
REFERENCE_S = 0.022

_MATRIX = np.random.default_rng(0).standard_normal((64, 64))


def _python_loop(n: int = 200_000) -> int:
    s = 0
    for i in range(n):
        s += (i * 7) % 13
    return s


def _matrix_products(n: int = 150) -> np.ndarray:
    b = _MATRIX
    for _ in range(n):
        b = _MATRIX @ b
        b = b / np.abs(b).max()
    return b


def probe() -> float:
    """Wall time of one fixed piece of work (about 20 ms on the reference host)."""
    start = time.perf_counter()
    _python_loop()
    _matrix_products()
    return time.perf_counter() - start


def scale(probes: list[float]) -> float:
    """Factor that turns a run's wall times into seconds at reference speed."""
    return REFERENCE_S / statistics.fmean(probes)
