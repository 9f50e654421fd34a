"""Host-speed calibration for a shared machine.

On a shared 2-CPU virtual machine (Xeon, 2 GHz), co-tenants were seen to slow
the same Python code by up to 2x for stretches of seconds to minutes, while a
tight arithmetic loop barely slowed at all. This kernel mixes what the
library does per call (small dense linear algebra, polynomial roots and
products, small frozen dataclasses, interpreter arithmetic) without calling
the library, so it slows with the library but never changes with it.

Every timing of the benchmark except set-up is scaled by
``REFERENCE_S / kernel time`` measured next to it, i.e. reported at the
speed of a host on which one kernel call takes ``REFERENCE_S``. The raw
times are reported alongside.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

# Kernel time, by definition, of the reference host (about the uncontended
# speed of the 2-CPU virtual machine above).
REFERENCE_S = 1.5e-3
KERNEL_CALLS = 5

_rng = np.random.default_rng(0)
_A = _rng.normal(size=(14, 6))
_Y = _rng.normal(size=(14, 3))
_S = _A.T @ _A
_Q = np.array([1.0, -2.0, 0.5, 3.0, -1.0])


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def _kernel() -> float:
    s = 0.0
    for _ in range(10):
        np.linalg.svd(_A, compute_uv=False)
        sol, *_ = np.linalg.lstsq(_A, _Y, rcond=None)
        roots = npoly.polyroots(_Q)
        c = npoly.polysub(npoly.polymul(_Q[:3], _Q[2:]), _Q[:4])
        x = np.linalg.solve(_S, sol[:, 0])
        d = np.linalg.norm(_A - x, axis=1)
        points = [_Point(float(r.real), float(r.imag)) for r in roots]
        s += sum(p.x * p.x + p.y for p in points) + float(c[0]) + float(d.sum())
        for j in range(30):
            s = max(abs(s * 0.5), 1.0) + j
    return s


def kernel_seconds() -> float:
    """Median time of one kernel call over a few calls (about 10 ms)."""
    times = []
    for _ in range(KERNEL_CALLS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before_s: float, after_s: float) -> float:
    """Factor taking a time measured between two kernel timings to the
    reference host."""
    return REFERENCE_S / (0.5 * (before_s + after_s))
