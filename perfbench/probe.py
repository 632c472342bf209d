"""A fixed reference kernel that measures how fast the machine runs now.

The machine is a shared virtual machine whose speed switches every few
seconds between states 30-50 % apart and drifts between quiet and busy
periods (README, Steadiness).  A workload process runs ``probe``
between its cases, outside the timed cases, and scales its times by
``PROBE_REF_S`` over the median probe time of its run, so that a run made
while the machine is slow reads about as a run made while it is quick.  The
kernel uses none of the program's code, so a change to the program moves the
scaled times as it moves the raw ones.  It mixes what the workloads do:
normal deviates, array arithmetic and sorting on quadrature-sized arrays,
floats formatted to and parsed from text, and small complex matrix
products.  Its arrays are small (190 kB at most) and freed at once, so it
adds nothing to the peak resident set.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: median kernel time between cases on the reference machine, 2 vCPUs of an
#: Intel Xeon virtual machine (README, End-to-end metrics) [s]
PROBE_REF_S = 0.016

#: kernel runs before every case
PROBE_REPS = 3

_MATRIX = ((np.random.default_rng(7).standard_normal((64, 64))
            + 1j * np.random.default_rng(8).standard_normal((64, 64)))
           / 8.0)


def _kernel() -> float:
    rng = np.random.default_rng(20221)
    total = np.zeros(12000)
    for _ in range(8):
        samples = rng.standard_normal((12000, 2))
        total += np.sort(samples[:, 0] * samples[:, 1])
    text = ",".join(f"{v:.17g}" for v in total[:6000].tolist())
    parsed = sum(map(float, text.split(",")))
    power = np.eye(64, dtype=complex)
    for _ in range(40):
        power = power @ _MATRIX
    return parsed + abs(np.trace(power))


def probe(reps: int = PROBE_REPS) -> list[float]:
    """Run the kernel ``reps`` times; return the time of each run."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return times


def speed_scale(times) -> float:
    """Factor that turns times measured beside these probes into seconds
    at the reference speed."""
    return PROBE_REF_S / statistics.median(times)
