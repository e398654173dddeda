"""Reference kernel that calibrates the benchmark's timings for CPU speed.

The 2-vCPU guests this benchmark was built on change speed by up to a factor
of two within minutes, under load from other tenants.  A fixed kernel timed
next to each measurement tracks that speed: a duration t measured while the
kernel takes `ref` seconds is reported as t * REF_NOMINAL_S / ref, the
seconds it would take at the speed where the kernel takes REF_NOMINAL_S.
A change to scalolab cannot move the kernel, so it cancels out of every
comparison between two commits on one machine.  Only `mc-gauss` and
`cli-cold` are calibrated: there it narrowed the run-to-run spread, while
on `reduction-deep` and `mc-rosenblatt` it tracked their speed too loosely
and widened some of theirs (README.md).  The kernel always runs in
the small, long-lived orchestrating process: timed inside a sweep
interpreter after a 15 s quantile draw, its time depended on that
process's heap and no longer tracked the machine.
"""

from time import perf_counter

import numpy as np

# Reference speed: about the kernel's best-of-three time on an Intel Xeon
# (model 143) KVM guest.
REF_NOMINAL_S = 0.012

_X = np.random.default_rng(20_240_101).standard_normal(2**17)
_H = _X[:256].copy()


def _kernel() -> float:
    # scalolab's sweep work in miniature: a real FFT round trip of a path's
    # length and a direct convolution with a 256-tap filter.  Of three
    # candidates (this, this plus an interpreted loop, the loop alone) it
    # tracked mc-gauss pass rates best: log-log slope -0.88, halving their
    # pass-to-pass variation.
    y = np.fft.irfft(np.fft.rfft(_X) * 0.5)
    z = np.convolve(y[: 2**16], _H, "valid")
    return float(z @ z)


def reference_s(repeats: int = 3) -> float:
    """Best of `repeats` timings of the fixed kernel, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


class Clock:
    """Calibration factors for consecutive spans of work: each factor is
    REF_NOMINAL_S over the mean kernel time just before and just after.
    `ref` times the kernel; by default in this process."""

    def __init__(self, ref=reference_s):
        self.ref = ref
        self.last = ref()

    def factor(self) -> float:
        """Factor for the span since the previous kernel timing."""
        after = self.ref()
        f = 2.0 * REF_NOMINAL_S / (self.last + after)
        self.last = after
        return f
