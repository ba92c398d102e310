"""Host-speed normalisation: every timing is read against a reference kernel run beside it.

On a shared VM plain CPU speed can drift by 10-70 % over seconds to minutes
(measured on a 2-vCPU x86_64 VM), far more than any bound a regression check
could use.  So after every timed operation the loop times `kernel()`, a fixed piece
of pure-stdlib `Fraction` arithmetic of the kind the library itself does
(about 1 ms), and every timing is reported as

    seconds * REF_KERNEL_S / (median kernel time of its neighbours)

that is, as the time it would take on a host where the kernel takes exactly
REF_KERNEL_S.  The kernel does not touch fiblti, so a change to the library
moves the normalised figures as much as the raw ones, while the host's speed
cancels out.  The raw wall-clock figures are printed beside them.  The stop
rule of a timed loop counts normalised seconds too, so every seed runs the
same rounds however fast the host is at the time.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REF_KERNEL_S = 1e-3  # nominal kernel time that normalised timings are expressed at
NEIGHBOURS = 7  # kernel samples on each side of a timing that set its local speed


def kernel() -> Fraction:
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(1, i)
    return s


def time_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def scaled(seconds: float, refs: list[float]) -> float:
    """`seconds` just measured, normalised by the latest kernel times (for stop rules)."""
    return seconds * REF_KERNEL_S / statistics.median(refs[-(2 * NEIGHBOURS + 1):])


def local_speeds(refs: list[float]) -> list[float]:
    """Per position, the median kernel time of the window around it."""
    n = len(refs)
    return [statistics.median(refs[max(0, i - NEIGHBOURS):i + NEIGHBOURS + 1]) for i in range(n)]


def normalise(times: list[float], refs: list[float]) -> list[float]:
    """`times[i]` rescaled by the kernel time measured around it (refs[i] follows times[i])."""
    return [t * REF_KERNEL_S / s for t, s in zip(times, local_speeds(refs))]
