"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of one core drifts by tens of percent over
minutes, and that drift moves every host-time metric alike.  The benchmark
times this kernel between passes.  It then rescales each pass to the speed
at which the kernel takes ``NOMINAL_S`` seconds, so a change in cowsim shows
and the host's drift largely cancels.

The kernel never touches cowsim.  It mixes the two kinds of work cowsim
does: an interpreted scan over a bit list, like the decoy-insertion loop,
and whole-array numpy draws, exponentials and index extraction, like
``receive``.  Its inputs are fixed, so it does the same work in every run
and every version of the program.
"""

from time import perf_counter

import numpy as np

# about the kernel's median time on the reference box (2-vCPU Xeon under KVM)
NOMINAL_S = 0.13


class Reference:
    def __init__(self):
        self._bits = np.random.default_rng(20200316).integers(0, 2, size=200_000).tolist()

    def seconds(self) -> float:
        """Host seconds for one run of the kernel.

        The arrays live only inside the call, so between calls the kernel
        adds nothing to the resident memory the benchmark reports.
        """
        t0 = perf_counter()
        bits, i = self._bits, 0
        while i + 4 <= len(bits):
            if bits[i] == 1 and bits[i + 1] == 0 and bits[i + 2] == 1 and bits[i + 3] == 0:
                i += 4
            else:
                i += 1
        rng = np.random.default_rng(1)
        means = rng.random(2_000_000)
        for _ in range(3):
            np.flatnonzero(rng.random(means.size) < -np.expm1(-0.05 * means))
        return perf_counter() - t0
