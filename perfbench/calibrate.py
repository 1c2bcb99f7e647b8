"""A fixed reference kernel that measures the host's current speed.

The benchmark's host is a few vCPUs of a shared machine whose speed drifts:
the same pass of the same code takes from 1x to 1.7x its fastest time over
minutes, and by up to 2x within seconds. The benchmark times this kernel
next to every stretch of measured work and reports that work's time scaled by
``REFERENCE_S / kernel seconds``: the seconds it would have taken at the
reference speed. The kernel uses only numpy and scipy, in the same mix of
small sparse factorizations, sparse mat-vecs, vector arithmetic and Python
loops that the program runs, and never the program's own code, so a change
to the program cannot move it.
"""

from __future__ import annotations

import time

# median seconds of one kernel call on the 2-vCPU Xeon host (Python 3.11,
# numpy 2.4, scipy 1.17) the benchmark was written on; it only sets the scale
REFERENCE_S = 0.05

# (dimension, solve/mat-vec rounds): a scan-sized and a Burgers-sized system
SYSTEMS = ((320, 600), (1200, 120))
# half-bandwidth of the periodic off-diagonal couplings, as for degree-3 elements
COUPLING = 4


def _system(n: int):
    """A diagonally dominant periodic banded matrix in CSC form, fixed by ``n``."""
    import numpy as np
    import scipy.sparse as sp

    offsets, bands = [0], [np.full(n, 2.0 + COUPLING)]
    for k in range(1, COUPLING + 1):
        for offset in (k, -k, n - k, k - n):
            offsets.append(offset)
            bands.append(np.full(n - abs(offset), -1.0 / k))
    return sp.diags(bands, offsets, shape=(n, n), format="csc")


class Kernel:
    """Callable returning the seconds of one run of the reference kernel."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._systems = [(_system(n), rounds) for n, rounds in SYSTEMS]

    def _work(self) -> float:
        from scipy.sparse.linalg import splu

        np = self._np
        total = 0.0
        for matrix, rounds in self._systems:
            lu = splu(matrix)
            x = np.linspace(-1.0, 1.0, matrix.shape[0])
            for _ in range(rounds):
                y = matrix @ x
                x = lu.solve(0.5 * y + x)
                x /= np.linalg.norm(x)
                total += float(x @ y)
        acc = 0.0
        for i in range(45000):
            acc += (i * 0.5) % 3.0
        return total + acc

    def __call__(self) -> float:
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start
