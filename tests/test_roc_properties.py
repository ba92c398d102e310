# tests/test_roc_properties.py
"""Region, inversion and expansion properties over drawn pole sets.

Numeric: denominators are built from known rational poles and handed to the
library raw, so their poles come from the numeric fallback.  Signed pairs
such as +-1/2 put two numeric poles on one circle, and modulus 1 puts poles
on the unit circle, where no region is stable.  Every region the numeric
path lists must be accepted by `classify` and `inverse_z`, and its window
must match the same denominator carrying its exact pole multiset: exactly
in a one-sided region, which the recursion answers, and to rounding in a
two-sided one and in the pole sum of an expansion without its system.

Exact: systems carry a stored multiset of rational poles or poles from one
field Q(sqrt(d)).  Their expansion must recombine to the system, the causal
window must equal the simulated recursion, and every region's derived tags
must agree with `classify`.  On every region, `inverse_z` (the system's
recursion) must equal the pole sum evaluated sample by sample with a fresh
power each time.
"""
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fiblti.lti import (
    PartialFractionExpansion,
    Pole,
    Polynomial,
    RationalSystem,
    classify,
    enumerate_rocs,
    inverse_z,
    partial_fractions,
    poly_mul,
)
from fiblti.qfield import QuadRational
from fiblti.response import make_impulse, simulate_difference_equation

MODULI = (Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2))
# Each modulus enters with sign +, - or both (two poles on one circle), or not at all.
POLE_SETS = st.lists(
    st.sampled_from([s * m for m in MODULI for s in (1, -1)]), min_size=3, max_size=5, unique=True
)


@settings(derandomize=True, deadline=None)
@given(POLE_SETS)
def test_every_numeric_region_matches_the_exact_poles(values):
    den = Polynomial([1])
    for v in values:
        den = poly_mul(den, [1, -v])
    raw = RationalSystem([1], den)
    exact = RationalSystem([1], den, [Pole(QuadRational(v)) for v in values])
    assert not any(p.exact for p in raw.poles())
    raw_rocs = enumerate_rocs(raw.poles())
    exact_rocs = enumerate_rocs(exact.poles())
    assert len(raw_rocs) == len(exact_rocs) == len({abs(v) for v in values}) + 1
    for roc, exact_roc in zip(raw_rocs, exact_rocs):
        assert classify(roc, raw.poles()) == classify(exact_roc, exact.poles())
        want = inverse_z(partial_fractions(exact), exact_roc, -6, 6)
        recorded = inverse_z(partial_fractions(raw), roc, -6, 6)
        one_sided = roc.causal or roc is raw_rocs[0]
        # A one-sided window comes from the exact recursion; only a two-sided
        # one is left to the pole sum over the numeric terms.
        assert recorded.exact == one_sided
        if one_sided:
            assert recorded == want
        scale = max(abs(float(v)) for v in want)
        e = partial_fractions(raw)
        pole_sum = PartialFractionExpansion(e.terms, e.poly_part)
        for got in (recorded, inverse_z(pole_sum, roc, -6, 6)):
            assert all(abs(float(g) - float(w)) <= 1e-9 * scale for g, w in zip(got, want, strict=True))


SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def exact_systems(draw, max_multiplicity=2):
    d = draw(st.sampled_from((2, 3, 5)))
    irrational = st.fractions(min_value=-1, max_value=1, max_denominator=2)
    values = draw(st.lists(
        st.builds(lambda a, b: QuadRational(a, b, d), SMALL, irrational).filter(bool),
        min_size=1, max_size=3, unique=True,
    ))
    poles = [Pole(v, draw(st.integers(1, max_multiplicity))) for v in values]
    den = Polynomial([1])
    for p in poles:
        for _ in range(p.multiplicity):
            den = poly_mul(den, [1, -p.value])
    num = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4).filter(any))
    return RationalSystem(num, den, poles)


@settings(derandomize=True, deadline=None)
@given(exact_systems())
def test_exact_systems_invert_recombine_and_classify(system):
    expansion = partial_fractions(system)
    assert expansion.exact
    assert expansion.reconstruct() == system
    rocs = enumerate_rocs(system.poles())
    assert inverse_z(expansion, rocs[-1], 0, 12) == simulate_difference_equation(
        system, make_impulse(), 12
    )
    for roc in rocs:
        assert (roc.causal, roc.stable) == classify(roc, system.poles())


# Windows straddling 0, wholly negative, ending between -m and 0 for m = 2, 3,
# and wholly on the far side of right-sided (negative) or left-sided terms.
WINDOWS = ((-5, 5), (-9, -4), (-6, -2), (-4, -1), (-1, 5), (2, 8))


def pole_sum(expansion, roc, n0, n1):
    """Each sample of the inverse as its own sum over the terms."""
    terms = [(t.coefficient, t.pole.value, t.order, abs(t.pole.value) <= roc.r_in)
             for t in expansion.terms]
    values = []
    for n in range(n0, n1 + 1):
        acc = expansion.poly_part.coefficient(n) if n >= 0 else 0
        for c, p, m, right in terms:
            if right and n >= 0:
                acc += c * math.comb(n + m - 1, m - 1) * p**n
            elif not right and n <= -m:
                # C(n+m-1, m-1) = (-1)^(m-1) C(-n-1, m-1) for negative n + m - 1.
                acc -= c * (-1) ** (m - 1) * math.comb(-n - 1, m - 1) * p**n
        values.append(acc)
    return values


@settings(derandomize=True, deadline=None, max_examples=50)
@given(exact_systems(max_multiplicity=3))
def test_every_exact_region_matches_the_per_sample_pole_sum(system):
    expansion = partial_fractions(system)
    for roc in enumerate_rocs(system.poles()):
        for n0, n1 in WINDOWS:
            got = inverse_z(expansion, roc, n0, n1)
            assert list(got.values) == pole_sum(expansion, roc, n0, n1)
