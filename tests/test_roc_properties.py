# tests/test_roc_properties.py
"""One modulus rule: numeric poles that share a circle bound one region.

Denominators are built from known rational poles and handed to the library
raw, so their poles come from the numeric fallback.  Signed pairs such as
+-1/2 put two numeric poles on one circle, and modulus 1 puts poles on the
unit circle, where no region is stable.  Every region the numeric path
lists must be accepted by `classify` and `inverse_z`, and its window must
match the same denominator carrying its exact pole multiset.
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
