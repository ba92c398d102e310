"""Time- and frequency-domain responses of the exact rational systems.

Time-domain paths are exact unless an input window holds floats.  The
difference-equation simulator runs the recursion once in big integers
(`qfield._exact_quotient`: the j-th state scaled by s^j, s the least
integer that makes every tap s^k D_k an integer pair, each output reduced
once), `convolve` multiplies two windows as polynomials by Kronecker
substitution (one big-int product per component), and the closed forms are `inverse_z` pole sums in Q(sqrt(5)) over the expansions of their
systems (`qfield._exact_pole_sum`, on scaled integers), passed without the
system so they stay independent of that recursion.  A float window enters
both kernels as the exact binary values of its floats, and each output is
rounded to a float once, so the result is inexact but correctly rounded.
The frequency side is a formal evaluation of the coefficient polynomials on
the unit circle, computed in floats on a uniform [0, pi] grid by one
pure-Python pass (`_unit_circle`) that the CLI's `freqz` calls directly; it
deliberately ignores whether any region of convergence actually contains
the circle, and says so in its metadata.
Only the array API (`freq_response`, `compare_magnitudes`,
`fibonacci_magnitude_law`) uses numpy, and each function imports it itself,
so everything else runs without loading it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .lti import (
    PartialFractionExpansion,
    RationalSystem,
    SequenceWindow,
    _horner,
    accumulator_system,
    cascade,
    enumerate_rocs,
    fibonacci_system,
    inverse_z,
    min_phase_system,
    partial_fractions,
)
from .qfield import QuadRational, _exact_product, _exact_quotient

if TYPE_CHECKING:
    import numpy as np

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


def _exact_values(x: SequenceWindow) -> tuple:
    """The window's values as field elements; a float becomes its exact binary value."""
    return x.values if x.exact else tuple(QuadRational(Fraction(v)) for v in x.values)


def _window(n0: int, values: list, exact: bool) -> SequenceWindow:
    """The exact outputs as a window, or each rounded once to a float when not `exact`."""
    if exact:
        return SequenceWindow(n0, values)
    try:
        return SequenceWindow(n0, [float(v) for v in values])
    except OverflowError:
        raise OverflowError(f"window [{n0}, {n0 + len(values) - 1}] leaves float range") from None


def simulate_difference_equation(sys: RationalSystem, x: Signal, n1: int) -> SequenceWindow:
    """Run the recursion the coefficients define, causally and exactly.

    y(n) = sum_k num[k] x(n-k) - sum_{k>=1} den[k] y(n-k) with zero initial
    state, for n from x.n0 through n1.  Coefficients may be exact field
    elements (the minimum-phase system exercises that).  The output is the
    series of (num * x)/den: `_exact_product` forms num * x and
    `_exact_quotient` runs the recursion once in big integers, the j-th
    state scaled by s^j with s the least integer that makes every tap
    s^k D_k integral, reducing each output once.  A float input enters as
    the exact binary values of its floats, and each output is rounded to a
    float once; an output beyond float range raises OverflowError.
    """
    if n1 < x.n0:
        raise ValueError(f"n1 = {n1} precedes the input start {x.n0}")
    u = _exact_product(sys.numerator.coeffs, _exact_values(x))
    ys = _exact_quotient(u, sys.denominator.coeffs, n1 - x.n0 + 1)
    return _window(x.n0, ys, x.exact)


def convolve(x: SequenceWindow, h: SequenceWindow) -> SequenceWindow:
    """Finite convolution of two windows: exact unless either window is inexact.

    The windows convolve by one big-int product per component
    (`qfield._exact_product`).  A float window enters as the exact binary
    values of its floats, and each output is rounded to a float once; an
    output beyond float range raises OverflowError.
    """
    if not x.values or not h.values:
        raise ValueError("convolution needs nonempty inputs")
    ys = _exact_product(_exact_values(x), _exact_values(h))
    return _window(x.n0 + h.n0, ys, x.exact and h.exact)


def _causal_impulse_response(sys: RationalSystem, n1: int) -> SequenceWindow:
    """The causal pole sum: the expansion drops its system, so `inverse_z`
    sums pole powers instead of running the recursion `simulate` runs."""
    if n1 < 0:
        raise ValueError(f"n1 must be >= 0, got {n1}")
    causal = enumerate_rocs(sys.poles())[-1]
    e = partial_fractions(sys)
    return inverse_z(PartialFractionExpansion(e.terms, e.poly_part), causal, 0, n1)


def step_response_closed_form(n1: int) -> SequenceWindow:
    """Step response A phi^n + B phi~^n - 1 = f(n+3) - 1 on [0, n1], exact.

    The causal pole sum of the Fibonacci system cascaded with the accumulator,
    whose residues are A = (2 phi + 1)/(2 phi - 1), B = 1/(4 phi + 3) and -1.
    """
    return _causal_impulse_response(cascade(fibonacci_system(), accumulator_system()), n1)


def min_phase_impulse(n1: int) -> SequenceWindow:
    """Impulse response -n phi^-n of `min_phase_system` on [0, n1]: its causal pole sum."""
    return _causal_impulse_response(min_phase_system(), n1)


#: What a frequency grid is: a formal evaluation, whatever the region of convergence.
_GRID_NOTE = "formal unit-circle evaluation"


class FrequencyGrid:
    """Magnitude and principal phase on a uniform [0, pi] grid.

    `note` records that this is a formal evaluation of the coefficient
    polynomials on |z| = 1, regardless of whether any region of convergence
    contains the circle.  Grid points where the denominator vanishes carry
    infinite magnitude and NaN phase.  The fields are read-only; equality
    and hashing are by identity, as the fields hold arrays.
    """

    __slots__ = ("points", "omegas", "magnitude", "phase", "note")

    def __init__(
        self,
        points: int,
        omegas: np.ndarray,
        magnitude: np.ndarray,
        phase: np.ndarray,
        note: str = _GRID_NOTE,
    ) -> None:
        for name, value in zip(self.__slots__, (points, omegas, magnitude, phase, note)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"FrequencyGrid({fields})"


def _unit_circle(sys: RationalSystem, points: int) -> tuple[list, list, list]:
    """Omegas, magnitudes and principal phases on `points` samples of [0, pi].

    w_i = i pi/(points - 1), the last exactly pi.  z = e^-jw is formed once
    per point, and is exact at w = 0, pi/2 (an odd grid's middle) and pi, so
    poles there are hit; N and D go by Horner in z (`lti._horner`).  Where
    D(z) = 0 the magnitude is inf and the phase NaN.  Plain lists: no numpy.
    """
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    num = sys.numerator.float_coeffs()[::-1]
    den = sys.denominator.float_coeffs()[::-1]
    step = math.pi / (points - 1)
    omegas = [i * step for i in range(points - 1)] + [math.pi]
    exact = {points - 1: complex(-1.0, -0.0)}
    if points % 2:
        exact[points // 2] = complex(0.0, -1.0)
    magnitude, phase = [], []
    for i, w in enumerate(omegas):
        z = exact.get(i) or complex(math.cos(w), -math.sin(w))
        d = _horner(den, z)
        if d == 0:
            magnitude.append(math.inf)
            phase.append(math.nan)
        else:
            h = _horner(num, z) / d
            magnitude.append(abs(h))
            phase.append(math.atan2(h.imag, h.real))
    return omegas, magnitude, phase


def freq_response(sys: RationalSystem, points: int = 512) -> FrequencyGrid:
    """Formal frequency response H(e^jw) on `points` samples of [0, pi]."""
    import numpy as np

    return FrequencyGrid(points, *map(np.array, _unit_circle(sys, points)))


class MagnitudeComparison(NamedTuple):
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
    import numpy as np

    ga = freq_response(a, points)
    gb = freq_response(b, points)
    ok = np.isfinite(ga.magnitude) & np.isfinite(gb.magnitude) & (gb.magnitude > 0)
    diff = float(np.max(np.abs(ga.magnitude[ok] - gb.magnitude[ok])))
    ratio = ga.magnitude[ok] / gb.magnitude[ok]
    return MagnitudeComparison(points, diff, float(np.min(ratio)), float(np.max(ratio)))


class BandFeatures(NamedTuple):
    """Landmarks of the Fibonacci system's magnitude response on [0, pi]."""

    minimum_omega: float
    minimum_magnitude: float
    half_power_omegas: tuple[float, float]


def fibonacci_magnitude_law(omegas) -> np.ndarray:
    """|H(e^jw)| = 1/sqrt(1 + 4 sin^2 w) for the Fibonacci system.

    Follows from e^jw D(e^jw) = 2j sin(w) - 1 for D(w) = 1 - z^-1 - z^-2 on
    the unit circle, so |D|^2 = 1 + 4 sin^2 w.
    """
    import numpy as np

    return np.vectorize(_law, otypes=[float])(omegas)[()]  # a scalar stays a scalar


def _law(w: float) -> float:
    """The magnitude law at one frequency (see `fibonacci_magnitude_law`)."""
    return 1.0 / math.sqrt(1.0 + 4.0 * math.sin(w) ** 2)


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
