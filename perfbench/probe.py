"""Host-speed sampling during a timed region.

The speed of this host's vCPUs changes by a sixth on average from one
second to the next and drifts by more over minutes, each vCPU on its
own: the same run_experiment call took from 3.2 s to 5.5 s with user CPU
time equal to its wall time.  A :class:`SpeedSampler` times a fixed
piece of work (small numpy array work and interpreted Python, as sonsim
does, using nothing from sonsim) every ``INTERVAL_S`` of wall time from a
``SIGALRM`` handler, on the same CPU and over the same stretch of time
as the work being measured.  A time multiplied by
``REFERENCE_S / mean_s`` is the time the work would have taken at the
speed at which one sample takes ``REFERENCE_S``.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05
# One sample's time on this 2-vCPU host (Python 3.11.7, numpy 2.4.6) at
# its usual speed; it only sets the unit, since a change and its parent
# share it.
REFERENCE_S = 0.0007

_RNG = np.random.default_rng(12345)
_SQUARE = _RNG.random((21, 21))
_LAYER = _RNG.normal(size=(24, 24))


def _work() -> float:
    acc = 0.0
    for _ in range(40):
        acc += float(np.log10(_SQUARE @ _SQUARE + 1.0).sum())
        acc += float((_LAYER @ _LAYER[:, :1]).sum())
        for j in range(30):
            acc += j * 0.5
    return acc


class SpeedSampler:
    """Context manager that samples the host's speed while it is active."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _work()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent_s += took

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        self.samples.clear()  # the first call warms numpy's code paths
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def mean_s(self) -> float:
        """Mean sample time; the warm-up call stands in if none was taken."""
        return sum(self.samples) / len(self.samples) if self.samples else self.spent_s
