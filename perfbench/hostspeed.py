"""Host-speed calibration for the benchmark's timings.

On a shared host the same op can take twice as long from one minute to the
next while its CPU time stays equal to its wall time: the core itself runs
slower while neighbours load it.  A fixed calibration loop, timed before
every op, slows down the same way.  The benchmark reads each op's time at
the host speed at which the loop takes ``REFERENCE_S``: it multiplies the
time by ``REFERENCE_S`` over the mean of the loop times just before and
just after the op.  Wider windows (medians of 4 to 20 loop times) left a
wider worst-case run-to-run spread over the workloads, mostly in the
tail latency of the short pair-inspect ops.
Set-up time is scaled the same way, by the median over the set-up phase.
Raw times go into the run record.  The loop uses only numpy and Python,
never qfdiv, so no change to the program can move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# roughly the loop's time on the 2-core Xeon host the benchmark was defined
# on, so scaled times there read close to raw ones
REFERENCE_S = 0.010


class Calibration:
    """Times a fixed mix of small-matrix numpy calls and Python arithmetic."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = []
        for _ in range(32):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            self.small.append(g @ g.conj().T)
        g = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self.large = g @ g.conj().T
        self.times = []

    def sample(self):
        start = perf_counter()
        acc = 0.0
        for _ in range(10):
            for m in self.small:
                w, v = np.linalg.eigh(m)
                acc += float(np.abs((v * w) @ v.conj().T).sum())
                acc += sum(0.5 * i for i in range(24))
        for _ in range(10):
            w, v = np.linalg.eigh(self.large)
            acc += float(w[-1])
        self.times.append(perf_counter() - start)
        return acc

    def overall_factor(self):
        """Multiplier reading a timing at reference speed, from all samples."""
        return REFERENCE_S / statistics.median(self.times)

    def factor(self, i):
        """Multiplier reading op i at reference speed; the loop was sampled
        before every op and once after the last."""
        return 2 * REFERENCE_S / (self.times[i] + self.times[i + 1])
