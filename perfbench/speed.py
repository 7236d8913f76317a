"""Reference kernels that measure how fast the machine is running right now.

On shared cores (a 2-vCPU KVM guest on an Intel Xeon host) the same
Python-bound op took, over tens of seconds, anywhere from one to two times
its fastest time, and a short numpy loop slowed down in step with it, while
BLAS-bound work moved much less. So the runner brackets every pass with a kernel of the
workload's kind, built from numpy alone and independent of qwalksim, and
scales each measured time by ``nominal / kernel time``: the time the pass
would have taken with the kernel at its nominal speed. Both the measured
and the scaled times are reported.
"""

from __future__ import annotations

import time

import numpy as np

# kernel time that defines the reference speed (scale factor 1): about the
# median time of each kernel on that 2-vCPU guest
NOMINAL_S = {"interpreter": 0.020, "blas": 0.025}
# the first second or so of BLAS work in a process ran up to eight times
# slower there, so a probe runs its kernel this long before it is used
WARM_UP_S = {"interpreter": 0.1, "blas": 1.5}


class SpeedProbe:
    """One reference kernel: many small-array numpy calls, or dense matmuls."""

    def __init__(self, kind: str):
        if kind not in NOMINAL_S:
            raise ValueError(f"kernel must be one of {sorted(NOMINAL_S)}, got {kind!r}")
        self.kind = kind
        rng = np.random.default_rng(0)
        if kind == "interpreter":
            self._a, self._b = rng.random((2, 200)) + 1j * rng.random((2, 200))
            self._order = rng.permutation(200)
        else:
            self._m = rng.random((400, 400)) + 1j * rng.random((400, 400))
        deadline = time.perf_counter() + WARM_UP_S[kind]
        while time.perf_counter() < deadline:
            self._run()

    def kernel_s(self) -> float:
        """Median of three kernel runs, so that one interrupted run cannot skew it."""
        return sorted(self._run() for _ in range(3))[1]

    def _run(self) -> float:
        started = time.perf_counter()
        if self.kind == "interpreter":
            a, b, order = self._a, self._b, self._order
            for _ in range(3000):
                float(np.abs((a * b + a)[order]).sum())
        else:
            for _ in range(4):
                self._m @ self._m
        return time.perf_counter() - started

    def scale(self, kernel_s: float) -> float:
        """Factor that turns a time measured at ``kernel_s`` into reference time."""
        return NOMINAL_S[self.kind] / kernel_s
