# tests/test_inverse_paths.py
"""One question, one answer: every path to an impulse-response window agrees.

`inverse_z` answers a one-sided region from the system's recursion when the
expansion records its system, and sums pole powers in every two-sided region
and whenever the expansion has no system.  Over random exact systems
(rational or in one field Q(sqrt(d)), poles of multiplicity 1-3, some
cancelled by a numerator zero) the recorded and the bare expansion, and the
expansion of the recombined system, must give the same exact window in
every region, and that window must equal the pole sum done sample by sample
in field arithmetic; the causal one must also equal the simulated
difference equation.  The order-8 cascade H^4 of the Fibonacci system and
two cascades with fractional taps add windows near -2000 and +2000.  Exact
pole sums run on scaled integers; with poles of multiplicity up to 4,
improper numerators and windows out to about +-300, they must equal both
the recursion and the field pole sum.  Rational
denominators of degree 3-5 handed over raw have numeric poles, yet their
one-sided windows must still equal the simulation exactly.
"""
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiblti.lti import (
    PartialFractionExpansion,
    Pole,
    Polynomial,
    RationalSystem,
    SequenceWindow,
    cascade,
    enumerate_rocs,
    fibonacci_system,
    inverse_z,
    partial_fractions,
    poly_mul,
)
from fiblti.qfield import SQRT5, FieldMismatchError, QuadRational
from fiblti.response import make_impulse, simulate_difference_equation

SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=3)
HALF = st.fractions(min_value=-1, max_value=1, max_denominator=2)
# Windows straddling 0, wholly negative past every left-sided start, and
# wholly positive.
WINDOWS = ((-7, 7), (-12, -4), (3, 9))
# H^4, the Fibonacci system cascaded four times: poles phi and psi, each of
# multiplicity 4.  Windows near +-2000 are the pole-sums benchmark's far case.
H2 = cascade(fibonacci_system(), fibonacci_system())
H4 = cascade(H2, H2)
FAR_WINDOWS = ((-2000, -1990), (1990, 2000))
# Cascades with fractional taps, whose recursions carry the least step scale
# s instead of the taps' common denominator L.  Over Q(sqrt(5)), L = 288 and
# s = 12: (1 - z^-1)/(1 - z^-1/2 - z^-2/4), 1/(1 - z^-1/2), 1/(1 + z^-1/3)^2
# and 1/(1 - (3/4 + sqrt(5)/4) z^-1).
CASCADE_288 = cascade(
    cascade(
        RationalSystem([1, -1], [1, Fraction(-1, 2), Fraction(-1, 4)]),
        RationalSystem([1], [1, Fraction(-1, 2)]),
    ),
    cascade(
        RationalSystem([1], [1, Fraction(2, 3), Fraction(1, 9)]),
        RationalSystem([1], [1, -(Fraction(3, 4) + SQRT5 / 4)]),
    ),
)
# Over Q, L = 64 and s = 4: (1 - z^-1/2)/(1 + 3z^-1 + z^-2),
# 1/(1 + z^-1/2 - z^-2/4), 1/(1 - 2z^-1) and 1/(1 + 5z^-1/4)^2.
CASCADE_64 = cascade(
    cascade(
        RationalSystem([1, Fraction(-1, 2)], [1, 3, 1]),
        RationalSystem([1], [1, Fraction(1, 2), Fraction(-1, 4)]),
    ),
    cascade(
        RationalSystem([1], [1, -2]),
        RationalSystem([1], [1, Fraction(5, 2), Fraction(25, 16)]),
    ),
)


@st.composite
def factored_systems(draw, max_multiplicity=3, improper=False):
    d = draw(st.sampled_from((0, 2, 3, 5)))
    value = st.builds(lambda a, b: QuadRational(a, b if d else 0, d or 5), SMALL, HALF)
    values = draw(st.lists(value.filter(bool), min_size=1, max_size=3, unique=True))
    poles = [Pole(v, draw(st.integers(1, max_multiplicity))) for v in values]
    den = Polynomial([1])
    for p in poles:
        for _ in range(p.multiplicity):
            den = poly_mul(den, [1, -p.value])
    if improper:
        # deg N exceeds deg D by 1-3, so the expansion has a polynomial part.
        size = den.degree + draw(st.integers(1, 3))
        num = draw(st.lists(value, min_size=size, max_size=size)) + [draw(value.filter(bool))]
        return RationalSystem(num, den, poles)
    num = Polynomial(draw(st.lists(value, min_size=1, max_size=4).filter(any)))
    if draw(st.booleans()):
        # A numerator zero on a pole lowers that pole's order in the response.
        num = poly_mul(num, [1, -draw(st.sampled_from(values))])
    return RationalSystem(num, den, poles)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(factored_systems(), st.just(WINDOWS))
@example(H4, FAR_WINDOWS)
@example(CASCADE_288, FAR_WINDOWS)
@example(CASCADE_64, FAR_WINDOWS)
def test_recursion_pole_sum_and_recombination_agree_in_every_region(system, windows):
    expansion = partial_fractions(system)
    assert expansion.system is system
    pole_sum = PartialFractionExpansion(expansion.terms, expansion.poly_part)
    recombined = partial_fractions(expansion.reconstruct())
    for roc in enumerate_rocs(system.poles()):
        for n0, n1 in windows:
            got = inverse_z(expansion, roc, n0, n1)
            assert got.exact
            assert got == inverse_z(pole_sum, roc, n0, n1)
            assert got == inverse_z(recombined, roc, n0, n1)
            assert list(got.values) == field_pole_sum(expansion, roc, n0, n1)
    causal = enumerate_rocs(system.poles())[-1]
    assert inverse_z(expansion, causal, 0, 15) == simulate_difference_equation(
        system, make_impulse(), 15
    )


def field_pole_sum(expansion, roc, n0, n1):
    """The window as per-sample field arithmetic: each term raises its pole
    once, at the end of its stretch nearest n = 0, and steps from there."""
    poly = expansion.poly_part.coeffs
    values = [poly[n] if 0 <= n < len(poly) else QuadRational(0) for n in range(n0, n1 + 1)]
    for t in expansion.terms:
        c, p, m = t.coefficient, t.pole.value, t.order
        if abs(p) <= roc.r_in:
            ns, step = range(max(n0, 0), n1 + 1), p
        else:
            ns, step, c = range(min(n1, -m), n0 - 1, -1), 1 / p, -c
        if not ns:
            continue
        power = p ** ns[0]
        for n in ns:
            if n >= 0:
                weight = math.comb(n + m - 1, m - 1)
            else:  # C(n+m-1, m-1) = (-1)^(m-1) C(-n-1, m-1) for negative n + m - 1
                weight = (-1) ** (m - 1) * math.comb(-n - 1, m - 1)
            values[n - n0] = values[n - n0] + c * weight * power
            power = power * step
    return values


@settings(derandomize=True, deadline=None, max_examples=40)
@given(factored_systems(max_multiplicity=4, improper=True), st.data())
def test_integer_pole_sum_equals_the_recursion_and_the_field_pole_sum(system, data):
    expansion = partial_fractions(system)
    assert expansion.exact and not expansion.poly_part.is_zero
    pole_sum = PartialFractionExpansion(expansion.terms, expansion.poly_part)
    # One window across n = 0 and one far out on each side.
    start = -data.draw(st.integers(1, 12))
    far = data.draw(st.integers(270, 300))
    windows = (
        (start, start + data.draw(st.integers(1, 24))),
        (-far, -far + data.draw(st.integers(0, 12))),
        (far - data.draw(st.integers(0, 12)), far),
    )
    for roc in enumerate_rocs(system.poles()):
        for n0, n1 in windows:
            got = inverse_z(pole_sum, roc, n0, n1)
            assert got.exact
            assert got == inverse_z(expansion, roc, n0, n1)
            assert list(got.values) == field_pole_sum(expansion, roc, n0, n1)


@st.composite
def raw_rational_systems(draw):
    degree = draw(st.integers(3, 5))
    den = [1, *draw(st.lists(SMALL, min_size=degree, max_size=degree))]
    if not den[-1]:
        den[-1] = Fraction(1, 2)
    num = draw(st.lists(SMALL, min_size=1, max_size=degree + 2).filter(any))
    return RationalSystem(num, den)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(raw_rational_systems())
def test_one_sided_windows_of_numeric_poles_equal_the_simulation(system):
    rocs = enumerate_rocs(system.poles())
    expansion = partial_fractions(system)
    assert not expansion.exact
    # Causal: the simulated impulse response, zero before n = 0.
    sim = simulate_difference_equation(system, make_impulse(), 40)
    assert inverse_z(expansion, rocs[-1], -5, 40) == SequenceWindow(-5, [0] * 5 + list(sim))
    # Innermost disc: h(M - K - j) is the simulated response of rev(N)/rev(D).
    num, den = system.numerator.coeffs, system.denominator.coeffs
    top = system.numerator.degree - system.denominator.degree
    rev = simulate_difference_equation(RationalSystem(num[::-1], den[::-1]), make_impulse(), 40)
    got = inverse_z(expansion, rocs[0], top - 40, top + 3)
    assert list(got.values) == list(rev.values)[::-1] + [0, 0, 0]


def test_cross_field_system_falls_back_to_the_pole_sum():
    # sqrt(2)/(1 + sqrt(5) z^-1): numerator and denominator in two fields.
    system = RationalSystem([QuadRational(0, 1, 2)], [1, QuadRational(0, 1, 5)])
    expansion = partial_fractions(system)
    anticausal, causal = enumerate_rocs(system.poles())
    sqrt2 = QuadRational(0, 1, 2)
    assert list(inverse_z(expansion, causal, 0, 0).values) == [sqrt2]
    assert list(inverse_z(expansion, causal, -3, 0).values) == [0, 0, 0, sqrt2]
    # h(1) = -sqrt(10) lies in neither field, so later samples cannot be held.
    with pytest.raises(FieldMismatchError):
        inverse_z(expansion, causal, 0, 1)
    with pytest.raises(FieldMismatchError):
        inverse_z(expansion, anticausal, -3, 0)
