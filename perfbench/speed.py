"""Machine-speed sampler, run beside a workload.

Usage: ``python3 speed.py <log file>``.  Times a fixed kernel (numpy
projection work and a plain Python loop, as in the program) every
``PERIOD`` seconds and appends ``<start> <seconds>`` lines to the log,
``start`` on the system-wide ``perf_counter`` clock, until its standard
input is closed.

Shared machines drift in speed by tens of percent over seconds to
minutes.  The workload reports each request's time at nominal speed
(see ``desk.Op.nominal``): for a request of ``LONG`` seconds or more it
divides by this log's median kernel time over the request, which tracks
the machine-wide drift; for a shorter one, by :class:`Kernel` timings
taken in its own process just before and after, which track its own
core.
"""
import select
import sys
from time import perf_counter

import numpy as np

PERIOD = 0.1
LONG = 1.0
NOMINAL = 0.0027  # the kernel's median seconds on a 2.1 GHz Xeon vCPU


class Kernel:
    """Fixed work: nearest-point projection in numpy and a Python loop."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._y = rng.standard_normal((4096, 2))
        self._p = rng.standard_normal((16, 2))
        self._buf = np.empty((4096, 16))

    def __call__(self) -> float:
        """Seconds one pass takes."""
        t0 = perf_counter()
        for _ in range(4):
            np.dot(self._y, self._p.T, out=self._buf)
            self._buf.argmin(axis=1)
        acc = 0
        for i in range(20_000):
            acc += i * i
        return perf_counter() - t0

    def sample(self) -> float:
        """Median of three passes."""
        return sorted(self() for _ in range(3))[1]


def main() -> None:
    kernel = Kernel()
    with open(sys.argv[1], "w") as log:
        while True:
            t0 = perf_counter()
            log.write(f"{t0!r} {kernel()!r}\n")
            if select.select([sys.stdin], [], [], PERIOD)[0]:
                return


if __name__ == "__main__":
    main()
