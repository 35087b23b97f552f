"""Host-speed reference: a fixed NumPy kernel timed next to the work.

The shared host the benchmark was written on changes speed by up to a third
from one minute to the next. A pass's CPU time moves with its wall time, so
the cause is the core running slower, not the process waiting for it, and
no statistic over one run's passes removes a slow phase that outlasts the
run. A fixed kernel timed right before and right after the work slows down
with it. Every end-to-end time is therefore reported at one fixed host
speed: measured seconds times ``NOMINAL_S / kernel seconds``. The kernel is
the benchmark's own code, so no change to the program moves it.
"""
from __future__ import annotations

import time

import numpy as np

# The kernel's time at the speed all times are reported at: about its time
# on an unloaded core of the machine the figures in README.md come from.
NOMINAL_S = 0.1


def kernel_seconds() -> float:
    """Time one run of the kernel: the array arithmetic, draws, sort and
    small least-squares fit that a pricing pass is made of, at its sizes."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    for _ in range(8):
        x = rng.standard_normal(200_000)
        y = np.exp(0.1 * x) * np.sqrt(np.abs(x)) + x * x
        features = rng.standard_normal((20_000, 10))
        np.linalg.lstsq(features, y[:20_000], rcond=None)
        y.sort()
    return time.perf_counter() - t0


def at_nominal_speed(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at nominal speed."""
    return seconds * NOMINAL_S / kernel_s
