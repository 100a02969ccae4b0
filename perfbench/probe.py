"""Host-speed probe: scale timings to a fixed reference speed.

The benchmark's host is a small VM whose vCPUs share their cores with
other tenants; its speed drifts by up to a factor of two within seconds.
Raw times of one pass then vary by 15-25 % between runs, which would hide
any change smaller than that.  So while a pass runs, a fixed computation
(two products of sparse rational polynomials, like the library's own
inner loop) is timed every PERIOD_S seconds from a timer signal, and each
interval's time is scaled by REFERENCE_S / (mean probe time in it): a
figure in seconds at the speed at which the probe takes REFERENCE_S.

The probe only reads the clock and touches its own small objects, with
the garbage collector paused, so it does not change what the library
does; its own time is subtracted before scaling.
"""

from __future__ import annotations

import gc
import random
import signal
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.02
# about the probe's time on the 2-vCPU VM (Python 3.11.7) of the baseline
REFERENCE_S = 0.0009
# intervals with fewer samples are scaled by the mean of the whole pass
MIN_SAMPLES = 3


def _sparse(rng: random.Random) -> dict:
    return {tuple(rng.randrange(4) for _ in range(5)):
            Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(8)}


def _product(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            value = out.get(m, Fraction(0)) + c1 * c2
            if value:
                out[m] = value
            else:
                out.pop(m, None)
    return out


class SpeedProbe:
    """Samples the host's speed in the background of the main thread."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._p, self._q = _sparse(rng), _sparse(rng)
        self.samples = 0
        self.probe_s = 0.0

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        started = perf_counter()
        _product(self._p, self._q)
        _product(self._q, self._p)
        self.probe_s += perf_counter() - started
        self.samples += 1
        if enabled:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def ensure_samples(self, since) -> None:
        """Sample directly until the interval since a mark holds
        MIN_SAMPLES samples, so that a short set-up is scaled too."""
        self.stop()
        while self.samples - since[1] < MIN_SAMPLES:
            self._sample(None, None)
        self.start()

    def mark(self) -> tuple[float, int, float]:
        """A point in time, with the probe's counters at that point."""
        return perf_counter(), self.samples, self.probe_s

    @staticmethod
    def interval(begin, end) -> tuple[float, int, float]:
        """Own time between two marks, with the probe samples taken in it."""
        samples, probe_s = end[1] - begin[1], end[2] - begin[2]
        return end[0] - begin[0] - probe_s, samples, probe_s


def scaled(own_s: float, samples: int, probe_s: float, fallback_mean_s: float) -> float:
    """Seconds at the reference speed for an interval's own time."""
    mean = probe_s / samples if samples >= MIN_SAMPLES else fallback_mean_s
    return own_s * REFERENCE_S / mean
