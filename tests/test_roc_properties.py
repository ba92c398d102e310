# tests/test_roc_properties.py
"""Region, inversion and expansion properties over drawn pole sets.

Numeric: denominators are built from known rational poles and handed to the
library raw, so their poles come from the numeric fallback.  Signed pairs
such as +-1/2 put two numeric poles on one circle, and modulus 1 puts poles
on the unit circle, where no region is stable.  Every region the numeric
path lists must be accepted by `classify` and `inverse_z`, and its window
must match the same denominator carrying its exact pole multiset.

Exact: systems carry a stored multiset of rational poles or poles from one
field Q(sqrt(d)).  Their expansion must recombine to the system, the causal
window must equal the simulated recursion, and every region's derived tags
must agree with `classify`.
"""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fiblti.lti import (
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
        got = inverse_z(partial_fractions(raw), roc, -6, 6)
        want = [float(v) for v in inverse_z(partial_fractions(exact), exact_roc, -6, 6)]
        scale = max(abs(v) for v in want)
        assert all(abs(g - w) <= 1e-9 * scale for g, w in zip(got, want, strict=True))


SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def exact_systems(draw):
    d = draw(st.sampled_from((2, 3, 5)))
    irrational = st.fractions(min_value=-1, max_value=1, max_denominator=2)
    values = draw(st.lists(
        st.builds(lambda a, b: QuadRational(a, b, d), SMALL, irrational).filter(bool),
        min_size=1, max_size=3, unique=True,
    ))
    poles = [Pole(v, draw(st.integers(1, 2))) for v in values]
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
