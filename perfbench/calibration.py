"""The calibration kernel that turns wall seconds into reference seconds.

A time in reference seconds is a wall time scaled by REFERENCE_S / (time of
the kernel measured on the same CPU just before and just after the timed
work): seconds on a CPU that runs the kernel in exactly 10 ms.  On a shared
machine each CPU's speed drifts by itself, by up to 1.7x between 10 s
windows; raw wall times carry that drift into every run, and scaling by the
kernel cancels it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.010


class Calibration:
    """A fixed mix of interpreter work and small numpy kernels, like a
    report's, that uses nothing from finslerlab, so the program's changes
    never move it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.index = rng.integers(0, 350, 4455)
        self.values = rng.standard_normal(4455) + 1j * rng.standard_normal(4455)
        self.matrix = rng.standard_normal((4, 4)) + 0j

    def seconds(self) -> float:
        start = time.perf_counter()
        for _ in range(40):
            table = {}
            for i in range(400):
                table[(i, i & 7)] = (i * 3, -i)
            out = np.zeros(350, dtype=complex)
            np.add.at(out, self.index, self.values * self.values)
            for _ in range(10):
                np.einsum("ab,bc->ac", self.matrix, self.matrix)
                np.tensordot(self.matrix, self.matrix, axes=(0, 0))
        return time.perf_counter() - start

    def scaled(self, measure, repeats: int = 1) -> tuple[float, float]:
        """Run ``measure()``, which returns the wall seconds it timed, between
        two timings of ``repeats`` runs of the kernel; return (wall seconds,
        reference seconds).  Longer work takes more repeats, so that the
        kernel's own jitter stays small beside the drift it tracks."""
        before = sum(self.seconds() for _ in range(repeats))
        wall = measure()
        after = sum(self.seconds() for _ in range(repeats))
        return wall, wall * 2 * repeats * REFERENCE_S / (before + after)
