"""Machine-speed probe used to scale the end-to-end times.

On a shared host the speed of a vCPU drifts by 20-40% over tens of seconds
(other tenants, turbo budget), far more than the regressions the benchmark
must catch.  The probe is a fixed ~20 ms mix of interpreter work, small
dense matmuls and large elementwise integer ops, none of it qrlab code.  A
run times the probe between calls and scales its times by
REFERENCE_S / median(probe); a code change in qrlab leaves the probe alone,
so it moves the scaled times exactly as it moves the raw ones.
"""

from statistics import median
from time import perf_counter

import numpy as np

REFERENCE_S = 0.02  # probe duration the scaled times are expressed against

_rng = np.random.default_rng(0)
_F = _rng.standard_normal((96, 96))
_I = _rng.integers(0, 5, (48, 48))
_V = _rng.integers(0, 300, 200_000)


def probe() -> float:
    """Seconds taken by one fixed unit of reference work."""
    t = perf_counter()
    x = 0
    for i in range(100_000):
        x += i * i
    for _ in range(20):
        _F @ _F
    for _ in range(10):
        _I @ _I
    for _ in range(10):
        (_V * _V + _V) % 7
    return perf_counter() - t


class SpeedLog:
    """Probe durations taken during one run."""

    def __init__(self):
        self.times = []

    def take(self, count: int = 1) -> None:
        self.times += [probe() for _ in range(count)]

    def scale(self) -> float:
        """Factor that turns this run's raw times into reference times."""
        return REFERENCE_S / median(self.times)
