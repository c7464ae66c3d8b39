"""Reference kernel that measures the host's current speed.

The host's speed drifts by 10-40% over tens of seconds (other tenants share
the cores; no steal time shows), which moves every raw time of a run alike.
This kernel does not touch werner_teleport. The benchmark times it between
operations (and between set-up processes) and scales the run's times by
NOMINAL_REFERENCE_S over the kernel's median time in the run, so times are
reported at the speed where the kernel takes NOMINAL_REFERENCE_S: its
median on a 2-core x86_64 sandbox with Python 3.11.7 and numpy 2.4.6.
Over 20 s windows this cut the range of a fixed operation's median time
from 36-39% to 9-17% of the median.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_REFERENCE_S = 1.45e-3
REFERENCE_REPEATS = 5


def reference_kernel() -> float:
    """The package's kinds of work: small-array numpy, 8x8 eigensolves,
    interpreter loops and 12-digit formatting."""
    x = np.linspace(0.0, 3.0, 33)
    m = np.eye(8) + 0.01 * np.ones((8, 8))
    total = 0.0
    for i in range(60):
        y = np.sin(x * (1.0 + 1e-3 * i)) ** 2
        total += float(y.min()) + float(np.linalg.eigvalsh(m)[0])
        total += len(",".join(f"{v:.12g}" for v in y[:8]))
    return total


def calibrate() -> list[float]:
    """Times of REFERENCE_REPEATS runs of the reference kernel."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return times
