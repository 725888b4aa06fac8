"""A fixed reference kernel that measures how fast the machine runs now.

On a shared machine one core's speed drifts by up to about 1.8x over
seconds to minutes, with the load of other tenants, which no time measured
from inside the process can separate from the program's own cost.  Timing
this kernel next to every operation and rescaling the operation's time to a
nominal kernel time cancels that drift.  The kernel never calls qest; it
mixes small dense linear algebra with interpreter work, as qest does.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.025  # kernel time of the nominal machine throughput is quoted at

_BASE = np.arange(9.0).reshape(3, 3) / 10.0 + np.eye(3)
_EYE = np.eye(3)


def kernel() -> float:
    acc = 0.0
    for i in range(1500):
        values, _ = np.linalg.eigh(_BASE + 1e-3 * i * _EYE)
        acc += float(values[0]) + sum(range(30))
    return acc


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
