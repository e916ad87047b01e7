"""Machine-speed reference for the end-to-end timings.

On a shared host the speed of a core changes with what other tenants run
on the same physical cores, caches and memory.  On a 2-vCPU Intel Xeon
VM the core flips between a fast and a slow state, about a third apart,
every few seconds, and the share of time spent slow drifts over minutes:
a fixed job set then takes a third longer in one run than in the next,
in wall and in CPU time alike.

So while the runner measures, a timer signal every PERIOD_S of wall time
runs a short sample of a fixed reference computation (about a tenth of
the time), also in the middle of a job; the runner subtracts the time
spent in samples from the job it interrupted.  Each run of an input set
is then reported scaled by

    NOMINAL_S / mean(reference samples taken during it)

that is, in seconds of a machine that runs the reference in NOMINAL_S.
The samples fall into the fast and slow states in the shares the jobs
ran in, so the drift cancels out.  The raw times and the speed factors
are kept in the result file.

The reference does not touch rdmsim, so no change to the library moves
it.  Its mix follows the workloads: short numpy operations on small
arrays driven by a Python loop (the collapse and beable steppers), FFTs
(the split-step grid), passes over large arrays (samplers and event
pairing) and plain Python object work (scenario parsing and dispatch).
"""

import signal
import time
from contextlib import contextmanager

import numpy as np

# about the median sample time on a 2-vCPU Intel Xeon VM, numpy 2.4,
# Python 3.11, so that reference seconds are close to seconds there
NOMINAL_S = 0.010
PERIOD_S = 0.1  # wall seconds between samples while measuring


def sample() -> float:
    """Run the reference computation once; return its wall seconds."""
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(20161108))
    p = np.full((256, 2), 0.5)
    acc = 0.0
    for _ in range(60):
        z = rng.standard_normal(256)
        p[:, 0] *= np.exp(0.01 * z)
        p[:, 1] *= np.exp(-0.01 * z)
        p /= p.sum(axis=1, keepdims=True)
        live = p.max(axis=1) < 0.99
        acc += float(p[live].max(axis=1).sum())
    x = np.exp(1j * np.linspace(0.0, 10.0, 2048))
    for _ in range(6):
        x = np.fft.ifft(np.fft.fft(x) * 0.999)
    a = rng.random(100_000)
    for _ in range(2):
        a = np.sort(np.sqrt(a * a + 1.0) - 1.0)
    table = {}
    for i in range(3000):
        key = f"k{i % 97}"
        table[key] = table.get(key, 0) + i
    acc += float(x.real.sum()) + float(a[0]) + len(table)
    if not np.isfinite(acc):  # consume every result inside the timed region
        raise RuntimeError("reference computation diverged")
    return time.perf_counter() - t0


class Speed:
    """Reference samples taken from a timer signal while armed.

    `wall` and `cpu` add up the time spent in samples, so that a caller
    can subtract what fell inside an interval it timed."""

    def __init__(self):
        self.samples = []
        self.wall = 0.0
        self.cpu = 0.0
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a sample outlasted the period; skip this tick
            return
        self._busy = True
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            self.samples.append(sample())
        finally:
            self.cpu += time.process_time() - c0
            self.wall += time.perf_counter() - w0
            self._busy = False

    @contextmanager
    def armed(self):
        """Take a sample every PERIOD_S of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, first: int = 0, stop: int = None) -> float:
        """Multiply a raw time by this to get reference seconds, from
        samples[first:stop], or every sample when that range is empty
        (an interval shorter than the period).  The mean, not the
        median: a job lasting seconds averages over both states."""
        chosen = self.samples[first:stop] or self.samples or [sample()]
        return NOMINAL_S / float(np.mean(chosen))
