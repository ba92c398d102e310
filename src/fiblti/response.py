"""Time- and frequency-domain responses of the exact rational systems.

Time-domain paths are exact: the difference-equation simulator runs the
recursion with field coefficients, `convolve` is exact finite convolution,
and the closed forms evaluate in Q(sqrt(5)) and cross-check themselves
against the recursion.  The frequency side is a formal evaluation of the
coefficient polynomials on the unit circle, computed in floats on a uniform
[0, pi] grid; it deliberately ignores whether any region of convergence
actually contains the circle, and says so in its metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fib import fib_recursive
from .lti import RationalSystem, SequenceWindow
from .qfield import GOLDEN_RATIO, GOLDEN_RATIO_CONJUGATE, QuadRational

__all__ = [
    "Signal",
    "make_impulse",
    "make_step",
    "simulate_difference_equation",
    "convolve",
    "step_response_closed_form",
    "min_phase_impulse",
    "FrequencyGrid",
    "freq_response",
    "MagnitudeComparison",
    "compare_magnitudes",
    "BandFeatures",
    "fibonacci_magnitude_law",
    "fibonacci_band_features",
]


#: Input signals are sequence windows too; the name reads better at call sites.
Signal = SequenceWindow


def make_impulse() -> Signal:
    """The unit impulse: value 1 at n = 0."""
    return Signal(0, (1,))


def make_step(length: int) -> Signal:
    """The unit step truncated to `length` samples starting at n = 0."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    return Signal(0, (1,) * length)


def simulate_difference_equation(sys: RationalSystem, x: Signal, n1: int) -> SequenceWindow:
    """Run the recursion the coefficients define, causally and exactly.

    y(n) = sum_k num[k] x(n-k) - sum_{k>=1} den[k] y(n-k) with zero initial
    state, for n from x.n0 through n1.  Coefficients may be exact field
    elements (the minimum-phase system exercises that).
    """
    if n1 < x.n0:
        raise ValueError(f"n1 = {n1} precedes the input start {x.n0}")
    num = sys.numerator.coeffs
    den = sys.denominator.coeffs
    n0 = x.n0
    ys: list[QuadRational] = []
    for n in range(n0, n1 + 1):
        acc = QuadRational(0)
        for k, ck in enumerate(num):
            xv = x.value_at(n - k)
            if xv:
                acc = acc + ck * xv
        for k in range(1, len(den)):
            i = n - k - n0
            if i >= 0 and ys[i]:
                acc = acc - den[k] * ys[i]
        ys.append(acc)
    return SequenceWindow(n0, ys)


def convolve(x: SequenceWindow, h: SequenceWindow) -> SequenceWindow:
    """Exact finite convolution of two windows."""
    xv = list(x.values)
    hv = list(h.values)
    if not xv or not hv:
        raise ValueError("convolution needs nonempty inputs")
    out = [None] * (len(xv) + len(hv) - 1)
    for i, a in enumerate(xv):
        for j, b in enumerate(hv):
            prod = a * b
            out[i + j] = prod if out[i + j] is None else out[i + j] + prod
    return SequenceWindow(x.n0 + h.n0, out)


def step_response_closed_form(n1: int) -> SequenceWindow:
    """Step response A phi^n + B phi~^n - 1, exact in Q(sqrt(5)).

    A = (2 phi + 1)/(2 phi - 1) and B = 1/(4 phi + 3); every value is
    asserted equal to f(n+3) - 1 from the recursion before it is returned.
    """
    if n1 < 0:
        raise ValueError(f"n1 must be >= 0, got {n1}")
    phi = GOLDEN_RATIO
    psi = GOLDEN_RATIO_CONJUGATE
    grow = (2 * phi + 1) / (2 * phi - 1)
    decay = 1 / (4 * phi + 3)
    fibs = [v.value for v in fib_recursive(0, n1 + 4)]
    values = []
    for n in range(n1 + 1):
        v = grow * phi ** n + decay * psi ** n - 1
        assert v == fibs[n + 3] - 1, "closed-form step response lost exactness"
        values.append(v)
    return SequenceWindow(0, values)


def min_phase_impulse(n1: int) -> SequenceWindow:
    """Impulse response -n phi^-n of the minimum-phase system, exact."""
    if n1 < 0:
        raise ValueError(f"n1 must be >= 0, got {n1}")
    inv_phi = GOLDEN_RATIO.inv()
    return SequenceWindow(0, [(-n) * inv_phi ** n for n in range(n1 + 1)])


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Magnitude and principal phase on a uniform [0, pi] grid.

    `note` records that this is a formal evaluation of the coefficient
    polynomials on |z| = 1, regardless of whether any region of convergence
    contains the circle.  Grid points where the denominator vanishes carry
    infinite magnitude and NaN phase.
    """

    points: int
    omegas: np.ndarray
    magnitude: np.ndarray
    phase: np.ndarray
    note: str = field(default="formal unit-circle evaluation")


def _eval_on_circle(poly, omegas: np.ndarray) -> np.ndarray:
    coeffs = poly.float_coeffs()
    if not coeffs:
        return np.zeros(len(omegas), dtype=complex)
    k = np.arange(len(coeffs))
    return np.exp(-1j * np.outer(omegas, k)) @ np.asarray(coeffs, dtype=complex)


def freq_response(sys: RationalSystem, points: int = 512) -> FrequencyGrid:
    """Formal frequency response H(e^jw) on `points` samples of [0, pi]."""
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    omegas = np.linspace(0.0, math.pi, points)
    nv = _eval_on_circle(sys.numerator, omegas)
    dv = _eval_on_circle(sys.denominator, omegas)
    singular = dv == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(singular, np.nan, nv) / np.where(singular, 1.0, dv)
    magnitude = np.abs(h)
    phase = np.angle(h)
    magnitude[singular] = np.inf
    phase[singular] = np.nan
    return FrequencyGrid(points, omegas, magnitude, phase)


@dataclass(frozen=True)
class MagnitudeComparison:
    """Pointwise comparison of two magnitude responses on a shared grid."""

    points: int
    max_abs_diff: float
    ratio_min: float
    ratio_max: float

    def within(self, tol: float) -> bool:
        return self.max_abs_diff <= tol


def compare_magnitudes(a: RationalSystem, b: RationalSystem, points: int = 512) -> MagnitudeComparison:
    """Compare |A| and |B| on the same [0, pi] grid.

    Reports the maximum absolute difference and the span of |A|/|B| over the
    grid points where both are finite and |B| is nonzero.
    """
    ga = freq_response(a, points)
    gb = freq_response(b, points)
    ok = np.isfinite(ga.magnitude) & np.isfinite(gb.magnitude) & (gb.magnitude > 0)
    diff = float(np.max(np.abs(ga.magnitude[ok] - gb.magnitude[ok])))
    ratio = ga.magnitude[ok] / gb.magnitude[ok]
    return MagnitudeComparison(points, diff, float(np.min(ratio)), float(np.max(ratio)))


@dataclass(frozen=True)
class BandFeatures:
    """Landmarks of the Fibonacci system's magnitude response on [0, pi]."""

    minimum_omega: float
    minimum_magnitude: float
    half_power_omegas: tuple[float, float]


def fibonacci_magnitude_law(omegas) -> np.ndarray:
    """|H(e^jw)| = 1/sqrt(1 + 4 sin^2 w) for the Fibonacci system.

    Follows from e^jw D(e^jw) = 2j sin(w) - 1 for D(w) = 1 - z^-1 - z^-2 on
    the unit circle, so |D|^2 = 1 + 4 sin^2 w.
    """
    omegas = np.asarray(omegas, dtype=float)
    return 1.0 / np.sqrt(1.0 + 4.0 * np.sin(omegas) ** 2)


def fibonacci_band_features() -> BandFeatures:
    """Exact landmarks implied by the magnitude law.

    The minimum sits at w = pi/2 with value 1/sqrt(5); the half-power points
    solve 4 sin^2 w = 1, i.e. w = pi/6 and 5 pi/6.  (Older accounts quoting
    0.2 pi and 0.8 pi do not satisfy the law and are not reproduced.)
    """
    return BandFeatures(
        minimum_omega=math.pi / 2,
        minimum_magnitude=1.0 / math.sqrt(5.0),
        half_power_omegas=(math.pi / 6, 5 * math.pi / 6),
    )
