"""Machine-speed probe, for timing on a CPU shared with other tenants.

On a shared core (as when a hyperthread's sibling runs other work)
the same computation runs up to twice as slow for stretches of seconds
to minutes, so wall times of one program drift by 25-35% between runs a
minute apart.  `SpeedProbe` times a fixed small computation every
INTERVAL seconds from a timer signal while an iteration runs.  The
iteration's busy time divided by the probe's concurrent durations
(`probes()`) follows the work done instead of the neighbours' load: on
this benchmark's workloads it cut the spread of 20-second runs (quartile
distance over median) from 0.10-0.34 to 0.01-0.05.

The probe is the solvers' per-step mix of tiny numpy arrays and Python
arithmetic, and uses no roughpaths code, so it is the same on every
commit.
"""

import signal
from time import perf_counter

import numpy as np

INTERVAL = 0.02                      # seconds between probes
_Y0 = np.array([1.0, 0.0])
_M = np.array([[0.01, -0.02], [0.03, 0.01]])


def probe_kernel() -> np.ndarray:
    y = _Y0
    for _ in range(40):
        fe = np.array([[np.sin(y[1]) * y[0]], [y[0]]])
        y = y + 1e-3 * (_M @ y) + 1e-4 * fe[:, 0]
    return y


class SpeedProbe:
    """Context manager timing its body and probing the speed during it."""

    def __init__(self):
        self.samples: list[float] = []
        self.wall = 0.0

    def _sample(self, *_):
        t0 = perf_counter()
        probe_kernel()
        self.samples.append(perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._sample()                       # at least one, outside the body
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall = perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def probes(self) -> float:
        """Body time in probe durations: busy time times mean(1/duration)."""
        d = np.asarray(self.samples)
        busy = self.wall - float(d[1:].sum())
        return busy * float(np.mean(1.0 / d))

    def median_probe_s(self) -> float:
        return float(np.median(self.samples))
