# tests/test_lti.py
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fiblti.lti import (
    InvalidRocError,
    MalformedSystemError,
    PartialFractionExpansion,
    PartialFractionTerm,
    Pole,
    Polynomial,
    RationalSystem,
    Roc,
    SequenceWindow,
    accumulator_system,
    cascade,
    classify,
    enumerate_rocs,
    fibonacci_system,
    find_poles,
    inverse_z,
    min_phase_system,
    partial_fractions,
    poly_mul,
    reciprocal_system,
)
from fiblti.qfield import (
    GOLDEN_RATIO,
    GOLDEN_RATIO_CONJUGATE,
    SQRT5,
    FieldMismatchError,
    QuadRational,
)

PHI = GOLDEN_RATIO
PSI = GOLDEN_RATIO_CONJUGATE


def fib(count):
    out = [0, 1]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


def pole_sum_only(sys_):
    """The expansion of sys_ without its system, so `inverse_z` sums pole powers."""
    e = partial_fractions(sys_)
    return PartialFractionExpansion(e.terms, e.poly_part)


def random_poly(rng, max_degree=5):
    degree = int(rng.integers(0, max_degree + 1))
    coeffs = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
              for _ in range(degree + 1)]
    return Polynomial(coeffs)


# ---------------------------------------------------------
# Polynomials in z^-1
# ---------------------------------------------------------
def test_polynomial_trims_trailing_zeros():
    p = Polynomial([1, 2, 0, 0])
    assert p.degree == 1
    assert p.coeffs == (QuadRational(1, 0, 5), QuadRational(2, 0, 5))
    assert Polynomial([0, 0]).is_zero
    assert Polynomial(()).is_zero


def test_polynomial_multiplication_is_convolution():
    den = Polynomial([1, -1, -1])
    sq = den * den
    assert [int(c) for c in sq.coeffs] == [1, -2, -1, 2, 1]
    assert poly_mul(den, den) == sq


def test_polynomial_multiplication_matches_fraction_oracle():
    rng = np.random.default_rng(41)
    for _ in range(25):
        p, q = random_poly(rng), random_poly(rng)
        prod = p * q
        a = [c.as_fraction() for c in p.coeffs]
        b = [c.as_fraction() for c in q.coeffs]
        ref = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                ref[i + j] += x * y
        while ref and ref[-1] == 0:
            ref.pop()
        assert [c.as_fraction() for c in prod.coeffs] == ref


def naive_poly_mul(p, q):
    """The double loop `Polynomial.__mul__` replaced: each sum starts at zero."""
    if p.is_zero or q.is_zero:
        return Polynomial()
    out = [QuadRational(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] = out[i + j] + a * b
    return Polynomial(out)


# Zeros, +-1, +-(2^k - 1) and fractions with up to 30-digit numerators and
# 25-digit denominators: signed slots, slot edges and common denominators.
COMPONENTS = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**25)),
    st.builds(lambda k, s: s * (2**k - 1), st.integers(1, 100), st.sampled_from([1, -1])),
)


def field_coefficients(d):
    """Rational coefficients built in any field, plus irrational ones in Q(sqrt(d))."""
    coeff = st.builds(QuadRational, COMPONENTS, st.just(0), st.sampled_from([2, 3, 5]))
    if d is None:
        return coeff
    return st.one_of(coeff, st.builds(QuadRational, COMPONENTS, COMPONENTS, st.just(d)))


@st.composite
def polynomial_pairs(draw):
    """Two polynomials over Q or Q(sqrt(d)); rational coefficients are built in any field."""
    d = draw(st.sampled_from([2, 3, 5]))
    pair = []
    for field_d in draw(st.sampled_from([(None, None), (d, None), (None, d), (d, d)])):
        pair.append(Polynomial(draw(st.lists(field_coefficients(field_d), min_size=1, max_size=12))))
    return pair


@settings(derandomize=True, deadline=None, max_examples=200)
@given(polynomial_pairs())
@example([Polynomial([0, 0]), Polynomial([QuadRational(0, 1, 2)])])
@example([Polynomial([QuadRational(3, 0, 2)]), Polynomial([QuadRational(0, -1, 2), 1])])
# The middle coefficient is the sum sqrt 2 - sqrt 2 = 0 of two irrational terms.
@example([Polynomial([1, 1]), Polynomial([QuadRational(0, -1, 2), QuadRational(0, 1, 2), 1])])
@example([Polynomial([2047] * 3), Polynomial([-2047] * 3)])
def test_polynomial_product_matches_the_double_loop(pair):
    p, q = pair
    got, want = p * q, naive_poly_mul(p, q)
    assert got == want and str(got) == str(want)
    # Equal rational values have one repr, so this checks .d too.
    assert [repr(c) for c in got.coeffs] == [repr(c) for c in want.coeffs]
    assert poly_mul(q, p) == want


def test_polynomial_product_rejects_coefficients_from_two_fields():
    root2 = Polynomial([1, QuadRational(0, 1, 2)])
    root3 = Polynomial([QuadRational(1, 1, 3)])
    with pytest.raises(FieldMismatchError):
        root2 * root3
    with pytest.raises(FieldMismatchError):
        root3 * root2
    assert (root2 * Polynomial([QuadRational(2, 0, 3)])).coeffs == (2, QuadRational(0, 2, 2))


def test_polynomial_evaluate_matches_fraction_oracle():
    rng = np.random.default_rng(43)
    for _ in range(20):
        p = random_poly(rng)
        w = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
        ref = sum(
            (c.as_fraction() * w**k for k, c in enumerate(p.coeffs)),
            Fraction(0),
        )
        assert p.evaluate(w) == ref


def long_division(num, den):
    """The long-division loop `Polynomial.__divmod__` replaced."""
    dn = den.degree
    if num.degree < dn:
        return Polynomial(), num
    rem = list(num.coeffs)
    lead = den.coeffs[dn]
    quot = [QuadRational(0)] * (len(rem) - dn)
    for i in range(len(rem) - 1, dn - 1, -1):
        c = rem[i] / lead
        quot[i - dn] = c
        if c:
            for j in range(dn + 1):
                rem[i - dn + j] = rem[i - dn + j] - c * den.coeffs[j]
    return Polynomial(quot), Polynomial(rem[:dn])


@st.composite
def division_pairs(draw):
    """A dividend (possibly zero) and a divisor of any degree with any last coefficient.

    Both are over Q or one Q(sqrt(d)); now and then the divisor's field differs.
    """
    d = draw(st.sampled_from([None, 2, 3, 5]))
    coeff = field_coefficients(d)
    num = Polynomial(draw(st.lists(coeff, max_size=8)))
    den_coeff = field_coefficients(draw(st.sampled_from([d, d, d, None, 2, 3, 5])))
    den = draw(st.lists(den_coeff, max_size=4)) + [draw(den_coeff.filter(bool))]
    return num, Polynomial(den)


ROOT2, ROOT3 = QuadRational(0, 1, 2), QuadRational(0, 1, 3)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(division_pairs())
# A zero dividend, a degree-0 divisor and a non-monic irrational divisor.
@example((Polynomial(), Polynomial([1, -1, -1])))
@example((Polynomial([1, 2, 3, 4]), Polynomial([Fraction(-2, 3)])))
@example((Polynomial([1, 2, 3, 4]), Polynomial([1, -1, -1])))
@example((Polynomial([ROOT2, 0, 1, 5]), Polynomial([1, ROOT2, QuadRational(3, 2, 2)])))
# Two fields: the quotient 2/(2 sqrt 2 - 1/3) and the untouched remainder
# 9/2 - 4 sqrt 3 never meet, so the long division succeeds.
@example((
    Polynomial([QuadRational(Fraction(9, 2), -4, 3), 2]),
    Polynomial([0, QuadRational(Fraction(-1, 3), 2, 2)]),
))
@example((Polynomial([0, 0, ROOT2]), Polynomial([1, ROOT3])))
def test_polynomial_divmod_property(pair):
    num, den = pair
    try:
        want = long_division(num, den)
    except FieldMismatchError:
        with pytest.raises(FieldMismatchError):
            divmod(num, den)
        return
    quot, rem = divmod(num, den)
    assert (quot, rem) == want
    # Equal rational values have one repr, so this checks .d too.
    assert [repr(c) for c in rem.coeffs] == [repr(c) for c in want[1].coeffs]
    assert [repr(c) for c in quot.coeffs] == [repr(c) for c in want[0].coeffs]
    assert quot * den + rem == num
    assert rem.is_zero or rem.degree < den.degree


def test_polynomial_irrational_coefficients_share_one_field():
    p = Polynomial([QuadRational(0, 1, 2), 1])
    assert p.coeffs[0].d == 2
    with pytest.raises(FieldMismatchError):
        Polynomial([QuadRational(0, 1, 2), QuadRational(0, 1, 3)])


def test_polynomial_str():
    assert str(Polynomial([1, -1, -1])) == "1 - 1*z^-1 - 1*z^-2"
    assert str(Polynomial([0, GOLDEN_RATIO])) == "(1/2+1/2*sqrt(5))*z^-1"


# ---------------------------------------------------------
# Systems and their poles
# ---------------------------------------------------------
def test_fibonacci_system_poles_are_the_golden_pair():
    poles = fibonacci_system().poles()
    assert [p.value for p in poles] == [PSI, PHI]
    assert all(p.exact and p.multiplicity == 1 for p in poles)


def test_accumulator_pole():
    poles = accumulator_system().poles()
    assert [(p.value, p.multiplicity) for p in poles] == [(QuadRational(1, 0, 5), 1)]


def test_min_phase_double_pole():
    poles = min_phase_system().poles()
    assert [(p.value, p.multiplicity) for p in poles] == [(PHI.inv(), 2)]
    assert poles[0].exact


def test_poles_in_a_different_field():
    poles = find_poles(Polynomial([1, -2, -1]))
    values = sorted((p.value for p in poles), key=float)
    assert values == [QuadRational(1, -1, 2), QuadRational(1, 1, 2)]
    assert all(p.exact for p in poles)


def test_complex_poles_fall_back_to_numerics():
    poles = find_poles(Polynomial([1, -1, 1]))
    assert len(poles) == 2
    assert not any(p.exact for p in poles)
    for p in poles:
        assert abs(abs(p.as_complex()) - 1.0) < 1e-12
        assert abs(p.as_complex().real - 0.5) < 1e-12
        assert type(p.value) is complex and type(p.modulus()) is float


def test_numeric_cubic_poles():
    den = Polynomial([1, Fraction(-13, 12), Fraction(3, 8), Fraction(-1, 24)])
    poles = find_poles(den)
    mods = sorted(abs(p.as_complex()) for p in poles)
    assert not any(p.exact for p in poles)
    assert mods == pytest.approx([0.25, 1 / 3, 0.5], abs=1e-9)


def test_numeric_repeated_pole_is_clustered():
    half = Polynomial([1, Fraction(-1, 2)])
    third = Polynomial([1, Fraction(-1, 3)])
    den = poly_mul(poly_mul(half, half), third)
    poles = sorted(find_poles(den), key=lambda p: abs(p.as_complex()))
    assert [(round(abs(p.as_complex()), 6), p.multiplicity) for p in poles] == [
        (round(1 / 3, 6), 1),
        (0.5, 2),
    ]


def _den_from_text(text: str) -> Polynomial:
    return Polynomial([Fraction(c) for c in text.split(",")])


def test_numeric_double_pole_is_exact():
    # (1 - 2z^-1)^2 (1 + z^-1/9)(1 - z^-1/100000).  The square-free split
    # leaves the double factor and a quadratic with rational roots, so every
    # pole is exact.
    poles = find_poles(_den_from_text("1,-3500009/900000,640007/180000,12499/28125,-1/225000"))
    assert Pole(QuadRational(2), 2) in poles
    assert all(p.exact for p in poles)
    assert sorted(p.multiplicity for p in poles) == [1, 1, 2]


def test_numeric_poles_are_closed_under_conjugation():
    # The triple pole 1/2 is exact now; a numeric pole set is never left with
    # an unpaired non-real pole either.
    def key(z):
        return (z.real, z.imag)

    poles = find_poles(_den_from_text("1,-3/2,3/4,-1/8"))
    values = sorted((p.as_complex() for p in poles for _ in range(p.multiplicity)), key=key)
    assert len(values) == 3
    assert sorted((z.conjugate() for z in values), key=key) == values


_SMALL = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def _known_roots(draw):
    """Distinct rational reals and pairs a +- bi (b != 0), 3 to 6 roots in all."""
    roots: list = []
    while len(roots) < 3 or (len(roots) < 6 and draw(st.booleans())):
        if len(roots) <= 4 and draw(st.booleans()):
            a, b = draw(_SMALL), draw(_SMALL.filter(bool))
            new = [(a, abs(b)), (a, -abs(b))]
        else:
            new = [(draw(_SMALL.filter(bool)), Fraction(0))]
        if not set(new) & set(roots):
            roots += new
    return roots


@settings(derandomize=True, deadline=None)
@given(_known_roots())
# Poles 2, 1, -1/2, -2/3, -5/4: the float root finder alone gave -2/3 one ulp
# off, at -0.6666666666666669.
@example([(Fraction(r), Fraction(0)) for r in ("2", "1", "-1/2", "-2/3", "-5/4")])
# Poles on the imaginary axis keep a zero real part.
@example([(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1))])
def test_numeric_poles_are_correctly_rounded_roots(roots):
    den = Polynomial([1])
    for a, b in roots:
        if b > 0:
            den = poly_mul(den, [1, -2 * a, a * a + b * b])
        elif not b:
            den = poly_mul(den, [1, -a])
    poles = find_poles(den)
    assert all(p.multiplicity == 1 for p in poles)
    got = sorted((p.as_complex() for p in poles), key=lambda z: (z.real, z.imag))
    want = sorted((complex(float(a), float(b)) for a, b in roots), key=lambda z: (z.real, z.imag))
    assert got == want


_PART = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _known_factors(draw):
    """Coprime factors with known roots over Q(sqrt(d)), each with a multiplicity 1-3.

    A factor is (coefficients in z^-1, roots, multiplicity): a linear factor
    with a root a + b sqrt(d), a rational quadratic with the roots
    a +- b sqrt(d), or a quadratic with the complex roots a +- ci, where a is
    in Q(sqrt(d)) and c is rational.  Real roots are field elements, complex
    ones Python complex values.
    """
    d = draw(st.sampled_from((2, 3, 5)))
    factors: list = []
    seen: set = set()
    for _ in range(draw(st.integers(1, 3))):
        a = QuadRational(draw(_PART), draw(_PART), d)
        c = draw(_PART.filter(bool))
        kind = draw(st.sampled_from(("linear", "real pair", "complex pair")))
        if kind == "linear":
            roots = [a]
        elif kind == "real pair":
            roots = [QuadRational(a.a, c, d), QuadRational(a.a, -c, d)]
        else:
            roots = [complex(float(a), float(c)), complex(float(a), -float(c))]
        if not all(roots) or seen & {complex(r) for r in roots}:
            continue
        seen |= {complex(r) for r in roots}
        if kind == "linear":
            coeffs = [1, -a]
        elif kind == "real pair":
            coeffs = [1, -2 * a.a, roots[0] * roots[1]]
        else:
            coeffs = [1, -2 * a, a * a + c * c]
        factors.append((coeffs, roots, draw(st.integers(1, 3))))
    assume(factors)
    return factors


def _expand(factors) -> Polynomial:
    den = Polynomial([1])
    for coeffs, _, m in factors:
        for _ in range(m):
            den = poly_mul(den, coeffs)
    return den


@settings(derandomize=True, deadline=None)
@given(_known_factors())
# (1 - z^-1 - z^-2)^2 with (1 - 2 z^-1)^3: both parts factor exactly.
@example([([1, -1, -1], [PHI, PSI], 2), ([1, -2], [QuadRational(2)], 3)])
# A part with a rational root and an irrational one, beside a double complex pair.
@example([
    ([1, -Fraction(1, 3)], [QuadRational(Fraction(1, 3))], 1),
    ([1, -SQRT5], [SQRT5], 1),
    ([1, 0, 1], [1j, -1j], 2),
])
def test_poles_of_known_factors_have_exact_multiplicities(factors):
    poles = find_poles(_expand(factors))
    # The square-free part of multiplicity m is the product of the factors of
    # multiplicity m; poles are exact when every such part factors exactly.
    parts: dict = {}
    for _, roots, m in factors:
        parts.setdefault(m, []).extend(roots)
    if all(len(roots) <= 2 and all(isinstance(r, QuadRational) for r in roots)
           for roots in parts.values()):
        want = Counter((r, m) for _, roots, m in factors for r in roots)
        assert Counter((p.value, p.multiplicity) for p in poles) == want
        return
    assert not any(p.exact for p in poles)
    assert len(poles) == sum(len(roots) for roots in parts.values())
    for _, roots, m in factors:
        for r in roots:
            z = complex(r)
            nearest = min(poles, key=lambda p: abs(p.value - z))
            assert abs(nearest.value - z) <= 1e-9 * max(1.0, abs(z))
            assert nearest.multiplicity == m


@settings(derandomize=True, deadline=None, max_examples=50)
@given(_known_factors())
def test_pole_multiplicities_agree_with_sympy_sqf_list(factors):
    sympy = pytest.importorskip("sympy")
    den = _expand(factors)
    d = next((c.d for c in den.coeffs if c.b), 5)
    w = sympy.Symbol("w")
    root_d = sympy.sqrt(d)

    def coefficient(q):
        return sympy.Rational(q.a.numerator, q.a.denominator) + sympy.Rational(
            q.b.numerator, q.b.denominator
        ) * root_d

    expr = sum(coefficient(c) * w**k for k, c in enumerate(den.coeffs))
    _, sqf = sympy.sqf_list(expr, w, extension=root_d)
    want = Counter()
    for factor, m in sqf:
        want[m] += sympy.degree(factor, w)
    got = Counter(p.multiplicity for p in find_poles(den))
    assert got == want


_IRRATIONAL_DENOMINATORS = st.integers(3, 5).flatmap(
    lambda degree: st.tuples(
        st.sampled_from((2, 3, 5)),
        st.lists(st.tuples(_PART, _PART), min_size=degree, max_size=degree),
    )
)


@settings(derandomize=True, deadline=None)
@given(_IRRATIONAL_DENOMINATORS)
# 1 + sqrt(2) z^-1 + z^-2 + (-1/2 + sqrt(2)/3) z^-3
@example((2, [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)),
              (Fraction(-1, 2), Fraction(1, 3))]))
def test_numeric_poles_of_irrational_coefficients_are_correctly_rounded(drawn):
    mpmath = pytest.importorskip("mpmath")
    d, pairs = drawn
    coeffs = [QuadRational(1)] + [QuadRational(a, b, d) for a, b in pairs]
    assume(coeffs[-1] and any(c.b for c in coeffs))
    poles = [p for p in find_poles(Polynomial(coeffs)) if not p.exact]
    assume(poles and all(p.multiplicity == 1 for p in poles))
    with mpmath.workprec(300):
        roots = mpmath.polyroots(
            [mpmath.mpf(c.a.numerator) / c.a.denominator
             + mpmath.mpf(c.b.numerator) / c.b.denominator * mpmath.sqrt(d) for c in coeffs],
            maxsteps=200, extraprec=300,
        )
        tiny = mpmath.mpf(2) ** -200
        for p in poles:
            root = min(roots, key=lambda r: abs(complex(r) - p.value))
            # A real root (or one on the imaginary axis) keeps a residue of
            # the working precision in its other part.
            re = root.real if abs(root.real) > tiny * abs(root) else 0
            im = root.imag if abs(root.imag) > tiny * abs(root) else 0
            assert p.value == complex(float(re), float(im))


def test_system_normalizes_the_denominator_constant():
    assert RationalSystem([2], [2, -2, -2]) == fibonacci_system()


def test_system_rejects_zero_denominator():
    with pytest.raises(MalformedSystemError):
        RationalSystem([1], [0])
    with pytest.raises(MalformedSystemError):
        RationalSystem([1], [])


def test_system_rejects_inconsistent_pole_factors():
    wrong = [
        Pole(QuadRational(2, 0, 5), 1),
        Pole(QuadRational(3, 0, 5), 1),
    ]
    with pytest.raises(MalformedSystemError):
        RationalSystem([1], [1, -1, -1], wrong)


def test_constant_system_has_no_poles():
    sys_ = RationalSystem([3], [1])
    assert sys_.poles() == ()
    rocs = enumerate_rocs(sys_.poles())
    assert len(rocs) == 1
    assert rocs[0].causal and rocs[0].stable


def test_equal_stored_pole_values_merge_into_one_pole():
    sys_ = RationalSystem([1], [1, -4, 4], [Pole(2), Pole(2)])
    assert sys_.poles() == (Pole(2, 2),)
    coeffs = {t.order: t.coefficient for t in partial_fractions(sys_).terms}
    assert coeffs == {1: 0, 2: 1}


def test_poles_are_found_once_per_system(monkeypatch):
    import fiblti.lti as lti

    calls = []
    for name in ("_factorise", "_numeric_poles"):
        def counted(arg, name=name, search=getattr(lti, name)):
            calls.append(name)
            return search(arg)

        monkeypatch.setattr(lti, name, counted)
    sys_ = RationalSystem([1], [1, Fraction(-13, 12), Fraction(3, 8), Fraction(-1, 24)])
    sys_.poles()
    sys_.poles()
    partial_fractions(sys_)
    assert calls == ["_factorise", "_numeric_poles"]
    # Systems whose poles are known: cascades and reciprocals search nothing
    # more, except the reversed numeric part of a reciprocal.
    fib_sys = fibonacci_system()
    fib_sys.poles()
    calls.clear()
    cascade(sys_, fib_sys).poles()
    cascade(fib_sys, fib_sys).poles()
    reciprocal_system(fib_sys).poles()
    assert calls == []
    reciprocal_system(sys_).poles()
    assert calls == ["_numeric_poles"]
    # A self-cascade shares its numeric part, so the product searches once.
    calls.clear()
    doubled = cascade(sys_, sys_)
    doubled.poles()
    doubled.poles()
    assert calls == ["_factorise", "_numeric_poles"]
    assert [p.multiplicity for p in doubled.poles()] == [2, 2, 2]


def test_stored_poles_from_two_fields_are_rejected():
    den = poly_mul([1, -1, -1], [1, -2, -1])
    poles = [Pole(PHI), Pole(PSI), Pole(QuadRational(1, 1, 2)), Pole(QuadRational(1, -1, 2))]
    with pytest.raises(FieldMismatchError):
        RationalSystem([1], den, poles)


@pytest.mark.parametrize("den", [[0, 1], [0, 1, 1], [0, 0, 1, 1]])
def test_find_poles_rejects_a_zero_constant_term(den):
    with pytest.raises(MalformedSystemError):
        find_poles(den)


# ---------------------------------------------------------
# Regions of convergence
# ---------------------------------------------------------
def test_fibonacci_rocs():
    rocs = enumerate_rocs(fibonacci_system().poles())
    assert len(rocs) == 3
    assert [(r.causal, r.stable) for r in rocs] == [
        (False, False),
        (False, True),
        (True, False),
    ]
    assert rocs[0].r_in == 0
    assert rocs[0].r_out == -PSI
    assert rocs[1] == Roc(-PSI, PHI)
    assert rocs[2].r_in == PHI and rocs[2].r_out is None


def test_accumulator_rocs():
    rocs = enumerate_rocs(accumulator_system().poles())
    assert [(r.causal, r.stable) for r in rocs] == [(False, False), (True, False)]


def test_min_phase_rocs():
    rocs = enumerate_rocs(min_phase_system().poles())
    assert [(r.causal, r.stable) for r in rocs] == [(False, False), (True, True)]
    assert rocs[1].r_in == PHI.inv()


def test_equal_modulus_poles_share_a_boundary():
    rocs = enumerate_rocs(find_poles(Polynomial([1, -1, 1])))
    assert len(rocs) == 2
    assert [(r.causal, r.stable) for r in rocs] == [(False, False), (True, False)]


def test_classify_flags_and_consistency_check():
    poles = fibonacci_system().poles()
    flags = classify(Roc(PHI, None), poles)
    assert flags == (True, False)
    with pytest.raises(InvalidRocError):
        classify(Roc(Fraction(3, 10), Fraction(1)), poles)


def test_numeric_poles_sharing_a_circle_bound_one_region():
    # H(z)H(-z) = 1/(1 - 3z^-2 + z^-4) has poles +-phi and +-1/phi, two per circle.
    raw = RationalSystem([1], [1, 0, -3, 0, 1])
    assert not any(p.exact for p in raw.poles())
    ring = enumerate_rocs(raw.poles())[1]
    assert classify(ring, raw.poles()) == (False, True)
    got = inverse_z(partial_fractions(raw), ring, -5, 5)
    exact = RationalSystem(
        [1], raw.denominator, [Pole(v) for v in (PHI, -PHI, PHI.inv(), -PHI.inv())]
    )
    want = inverse_z(partial_fractions(exact), enumerate_rocs(exact.poles())[1], -5, 5)
    scale = max(abs(float(v)) for v in want)
    assert all(abs(g - float(w)) <= 1e-12 * scale for g, w in zip(got, want, strict=True))


def test_small_numeric_poles_stay_apart():
    # Poles 1e-7 and 3e-7 differ by far more than the relative cluster tolerance.
    values = (Fraction(1, 10**7), Fraction(3, 10**7), Fraction(1, 2))
    den = poly_mul(poly_mul([1, -values[0]], [1, -values[1]]), [1, -values[2]])
    raw = RationalSystem([1], den)
    exact = RationalSystem([1], den, [Pole(QuadRational(v)) for v in values])
    assert [p.multiplicity for p in raw.poles()] == [1, 1, 1]
    raw_rocs = enumerate_rocs(raw.poles())
    exact_rocs = enumerate_rocs(exact.poles())
    assert len(raw_rocs) == 4
    assert [classify(r) for r in raw_rocs] == [classify(r) for r in exact_rocs]
    want = inverse_z(partial_fractions(exact), exact_rocs[-1], 0, 12)
    assert inverse_z(partial_fractions(raw), raw_rocs[-1], 0, 12) == want
    # Merged poles would show in the pole sum over the numeric terms.
    got = inverse_z(pole_sum_only(raw), raw_rocs[-1], 0, 12)
    scale = max(abs(float(v)) for v in want)
    assert all(abs(g - float(w)) <= 1e-9 * scale for g, w in zip(got, want, strict=True))


def test_exact_moduli_that_round_to_one_float_keep_their_order():
    # Poles 1 and 1 + 2^-60 round to one double: float(1 + 2^-60) == 1.
    from fiblti.response import make_impulse, simulate_difference_equation

    near = 1 + Fraction(1, 2**60)
    system = RationalSystem([1], poly_mul([1, -1], [1, -near]))
    rocs = enumerate_rocs(system.poles())
    assert [(r.r_in, r.r_out) for r in rocs] == [(0, 1), (1, near), (near, None)]
    causal = inverse_z(partial_fractions(system), rocs[-1], 0, 12)
    assert causal == simulate_difference_equation(system, make_impulse(), 12)


# ---------------------------------------------------------
# Partial fractions
# ---------------------------------------------------------
def test_fibonacci_residues_are_exact():
    expansion = partial_fractions(fibonacci_system())
    assert expansion.exact
    assert expansion.poly_part.is_zero
    by_pole = {t.pole.value: t.coefficient for t in expansion.terms}
    assert by_pole == {
        PHI: PHI / SQRT5,
        PSI: -PSI / SQRT5,
    }
    assert by_pole[PHI] == QuadRational(Fraction(1, 2), Fraction(1, 10), 5)
    assert by_pole[PSI] == QuadRational(Fraction(1, 2), Fraction(-1, 10), 5)


def test_min_phase_residues():
    expansion = partial_fractions(min_phase_system())
    pairs = {(t.order, t.coefficient) for t in expansion.terms}
    assert pairs == {(1, QuadRational(1, 0, 5)), (2, QuadRational(-1, 0, 5))}


def test_step_cascade_residues():
    combined = cascade(fibonacci_system(), accumulator_system())
    expansion = partial_fractions(combined)
    by_pole = {t.pole.value: t.coefficient for t in expansion.terms}
    one = QuadRational(1, 0, 5)
    assert by_pole[PHI] == (2 * PHI + 1) / (2 * PHI - 1)
    assert by_pole[PSI] == one / (4 * PHI + 3)
    assert by_pole[one] == -one


def test_expansion_reconstructs_the_system():
    for sys_ in (
        fibonacci_system(),
        accumulator_system(),
        min_phase_system(),
        cascade(fibonacci_system(), accumulator_system()),
        RationalSystem([1, 0, 0, 1], [1, -1, -1]),
    ):
        assert partial_fractions(sys_).reconstruct() == sys_


def test_improper_system_gets_a_polynomial_part():
    expansion = partial_fractions(RationalSystem([1, 0, 0, 1], [1, -1, -1]))
    assert not expansion.poly_part.is_zero
    assert expansion.poly_part.degree == 1


def test_numeric_residues_reconstruct_within_tolerance():
    den = Polynomial([1, Fraction(-13, 12), Fraction(3, 8), Fraction(-1, 24)])
    sys_ = RationalSystem([1], den)
    expansion = partial_fractions(sys_)
    assert not expansion.exact
    # Residues of 1/prod(1 - p_k w) at w = 1/p: prod over others.
    for t in expansion.terms:
        p = t.pole.as_complex()
        others = [q.pole.as_complex() for q in expansion.terms if q is not t]
        expected = 1.0
        for q in others:
            expected /= 1 - q / p
        assert t.coefficient == pytest.approx(expected, abs=1e-9)


def test_residue_beside_triple_numeric_poles_is_accurate():
    # Three triple numeric poles and a simple pole at -3/4, two of them
    # 0.004 apart.  Expanding the other poles' factors into a polynomial and
    # evaluating it at the pole cancelled to 2.4e-10 relative error here.
    den = Polynomial([1, Fraction(39, 4), Fraction(123, 4), 21, Fraction(-231, 4), -78,
                      Fraction(89, 4), Fraction(261, 4), Fraction(21, 2), -17, -6])
    sys_ = RationalSystem([Fraction(3, 2)], den)
    assert sorted(p.multiplicity for p in sys_.poles()) == [1, 3, 3, 3]
    cofactor, rest = divmod(den, Polynomial([1, Fraction(3, 4)]))
    assert rest.is_zero
    want = complex(Fraction(3, 2) / cofactor.evaluate(Fraction(-4, 3)))
    assert want == -59049 / 2
    (got,) = [t.coefficient for t in partial_fractions(sys_).terms
              if abs(t.pole.value + 0.75) < 1e-9]
    assert abs(got - want) <= 1e-12 * abs(want)


@st.composite
def _rational_factorizations(draw):
    """Factors of degree 1-3 with small rational coefficients, each to a
    multiplicity 1-3, of total degree 3-10."""
    target = draw(st.integers(3, 10))
    factors, degree = [], 0
    while degree < target:
        size = draw(st.integers(1, min(3, target - degree)))
        m = draw(st.integers(1, min(3, (10 - degree) // size)))
        coeffs = [1] + draw(st.lists(_PART, min_size=size, max_size=size))
        assume(coeffs[-1])
        factors.append((coeffs, m))
        degree += size * m
    return factors


# Over the first 600 drawn systems (4597 residues) the largest relative error
# was 5.1e-14 and the median 2.5e-16.  Expanding each pole's cofactor and
# evaluating it at the pole gave up to 4.5e-12 on the first 100.
@settings(derandomize=True, deadline=None, max_examples=100)
@given(_rational_factorizations(), st.lists(_PART.filter(bool), min_size=1, max_size=3))
def test_numeric_residues_agree_with_mpmath(factors, num):
    mpmath = pytest.importorskip("mpmath")
    den = Polynomial([1])
    for coeffs, m in factors:
        for _ in range(m):
            den = poly_mul(den, coeffs)
    expansion = partial_fractions(RationalSystem(num, den))
    # Square-free, pairwise coprime factors: every root is a distinct pole.
    assume(len({t.pole for t in expansion.terms}) == sum(len(c) - 1 for c, _ in factors))
    with mpmath.workdps(60):
        def mp(c):
            c = Fraction(c)
            return mpmath.mpf(c.numerator) / c.denominator

        poles = [(z, m) for coeffs, m in factors
                 for z in mpmath.polyroots([mp(c) for c in coeffs], maxsteps=200, extraprec=200)]
        # The reference residues solve N/D = sum c / (1 - p w)^j at as many
        # points w, inside the disc where every term converges, as unknowns.
        cols = [(p, j) for p, m in poles for j in range(1, m + 1)]
        radius = 1 / (3 * (1 + max(abs(p) for p, _ in poles)))
        ws = [radius * mpmath.expjpi(mpmath.mpf(2 * s + 1) / len(cols)) for s in range(len(cols))]
        rows = [[1 / (1 - p * w) ** j for p, j in cols] for w in ws]
        ratios = [mpmath.polyval([mp(c) for c in reversed(num)], w)
                  / mpmath.polyval([mp(c.a) for c in reversed(den.coeffs)], w) for w in ws]
        residues = mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(ratios))
        for t in expansion.terms:
            nearest = min((p for p, _ in cols), key=lambda p: abs(p - complex(t.pole.value)))
            want = next(residues[k] for k, (p, j) in enumerate(cols) if p == nearest and j == t.order)
            # 1e-40 absorbs the reference's own noise where a residue is exactly 0.
            assert abs(complex(t.coefficient) - want) <= 2e-13 * abs(want) + 1e-40


# ---------------------------------------------------------
# Inverse transforms per region
# ---------------------------------------------------------
def test_causal_window_is_the_shifted_sequence():
    sys_ = fibonacci_system()
    expansion = partial_fractions(sys_)
    roc = enumerate_rocs(sys_.poles())[-1]
    win = inverse_z(expansion, roc, 0, 60)
    assert win.exact
    assert win.to_ints() == fib(62)[1:]


def test_causal_window_satisfies_the_recursion_with_impulse():
    sys_ = fibonacci_system()
    win = inverse_z(partial_fractions(sys_), enumerate_rocs(sys_.poles())[-1], -2, 20)
    for n in range(0, 21):
        delta = 1 if n == 0 else 0
        assert win.value_at(n) == win.value_at(n - 1) + win.value_at(n - 2) + delta


def test_anticausal_window():
    sys_ = fibonacci_system()
    roc = enumerate_rocs(sys_.poles())[0]
    win = inverse_z(partial_fractions(sys_), roc, -11, 0)
    assert win.to_ints() == [55, -34, 21, -13, 8, -5, 3, -2, 1, -1, 0, 0]


def test_anticausal_window_satisfies_the_recursion_backward():
    """y(n-2) = y(n) - y(n-1) - delta(n), run from the zero tail."""
    sys_ = fibonacci_system()
    roc = enumerate_rocs(sys_.poles())[0]
    win = inverse_z(partial_fractions(sys_), roc, -40, 1)
    ref = {1: 0, 0: 0}
    for n in range(1, -39, -1):
        delta = 1 if n == 0 else 0
        ref[n - 2] = ref[n] - ref[n - 1] - delta
    for n in range(-40, 2):
        assert win.value_at(n) == ref[n]


def test_two_sided_window():
    sys_ = fibonacci_system()
    roc = enumerate_rocs(sys_.poles())[1]
    win = inverse_z(partial_fractions(sys_), roc, -8, 8)
    c = PHI / SQRT5
    d = -PSI / SQRT5
    for n in range(-8, 9):
        expect = d * PSI**n if n >= 0 else -c * PHI**n
        assert win.value_at(n) == expect


def test_two_sided_window_satisfies_the_recursion_with_impulse():
    sys_ = fibonacci_system()
    roc = enumerate_rocs(sys_.poles())[1]
    win = inverse_z(partial_fractions(sys_), roc, -10, 10)
    for n in range(-8, 11):
        delta = 1 if n == 0 else 0
        assert win.value_at(n) == win.value_at(n - 1) + win.value_at(n - 2) + delta


def test_fabricated_annulus_with_interior_pole_is_rejected():
    expansion = partial_fractions(fibonacci_system())
    bad = Roc(Fraction(3, 10), Fraction(1))
    with pytest.raises(InvalidRocError):
        inverse_z(expansion, bad, 0, 5)


def test_empty_window_is_rejected():
    expansion = partial_fractions(fibonacci_system())
    roc = enumerate_rocs(fibonacci_system().poles())[-1]
    with pytest.raises(ValueError):
        inverse_z(expansion, roc, 5, 4)


def test_left_sided_double_pole():
    """Anticausal side of the repeated pole: h(n) = n phi^-n for n <= -1."""
    sys_ = min_phase_system()
    roc = enumerate_rocs(sys_.poles())[0]
    win = inverse_z(partial_fractions(sys_), roc, -10, 2)
    inv_phi = PHI.inv()
    for n in range(-10, 3):
        expect = n * inv_phi**n if n <= -1 else QuadRational(0, 0, 5)
        assert win.value_at(n) == expect


def test_improper_expansion_inverts_to_the_simulated_response():
    from fiblti.response import make_impulse, simulate_difference_equation

    sys_ = RationalSystem([1, 0, 0, 1], [1, -1, -1])
    roc = enumerate_rocs(sys_.poles())[-1]
    win = inverse_z(partial_fractions(sys_), roc, 0, 25)
    sim = simulate_difference_equation(sys_, make_impulse(), 25)
    assert win == sim


def test_numeric_inverse_matches_exact_simulation():
    from fiblti.response import make_impulse, simulate_difference_equation

    den = Polynomial([1, Fraction(-13, 12), Fraction(3, 8), Fraction(-1, 24)])
    sys_ = RationalSystem([1], den)
    roc = enumerate_rocs(sys_.poles())[-1]
    sim = simulate_difference_equation(sys_, make_impulse(), 30)
    assert inverse_z(partial_fractions(sys_), roc, 0, 30) == sim
    win = inverse_z(pole_sum_only(sys_), roc, 0, 30)
    assert not win.exact
    for (n, got), (_, ref) in zip(win.items(), sim.items()):
        assert got == pytest.approx(float(ref), abs=1e-9)


def test_numeric_residues_survive_pole_zero_cancellation():
    # The numerator -4 - 2z^-1 vanishes at the pole -1/2, whose residue is 0.
    values = (Fraction(-1, 2), Fraction(-2, 3), 1, Fraction(-5, 4), 2)
    den = [1, Fraction(-7, 12), Fraction(-83, 24), Fraction(-1, 8), Fraction(7, 3), Fraction(5, 6)]
    raw = RationalSystem([-4, -2], den)
    exact = RationalSystem([-4, -2], den, [Pole(v) for v in values])
    assert not any(p.exact for p in raw.poles())
    want = inverse_z(partial_fractions(exact), enumerate_rocs(exact.poles())[0], -40, 0)
    assert inverse_z(partial_fractions(raw), enumerate_rocs(raw.poles())[0], -40, 0) == want
    got = inverse_z(pole_sum_only(raw), enumerate_rocs(raw.poles())[0], -40, 0)
    scale = max(abs(float(v)) for v in want)
    assert all(abs(g - float(w)) <= 1e-12 * scale for g, w in zip(got, want, strict=True))


def test_numeric_anticausal_window_steps_down_without_underflow():
    # 2**-1100 underflows to 0.0, so a pole power stepped up from n0 = -1100
    # would zero the window; stepped down from n = -1 it only shrinks.
    values = (2, 3, Fraction(-5, 2))
    den = poly_mul(poly_mul([1, -values[0]], [1, -values[1]]), [1, -values[2]])
    raw = RationalSystem([1], den)
    exact = RationalSystem([1], den, [Pole(QuadRational(v)) for v in values])
    assert not any(p.exact for p in raw.poles())
    want = inverse_z(partial_fractions(exact), enumerate_rocs(exact.poles())[0], -1100, -1)
    assert inverse_z(partial_fractions(raw), enumerate_rocs(raw.poles())[0], -1100, -1) == want
    got = inverse_z(pole_sum_only(raw), enumerate_rocs(raw.poles())[0], -1100, -1)
    scale = max(abs(float(v)) for v in want)
    assert all(abs(g - float(w)) <= 1e-12 * scale for g, w in zip(got, want, strict=True))


# ---------------------------------------------------------
# Reciprocal systems
# ---------------------------------------------------------
def test_reciprocal_of_the_fibonacci_system():
    flipped = reciprocal_system(fibonacci_system())
    assert [int(c) for c in flipped.numerator.coeffs] == [1]
    assert [int(c) for c in flipped.denominator.coeffs] == [1, 1, -1]
    values = sorted((p.value for p in flipped.poles()), key=float)
    assert values == [-PHI, PHI.inv()]


def test_reciprocal_is_an_involution_without_delays():
    sys_ = fibonacci_system()
    assert reciprocal_system(reciprocal_system(sys_)) == sys_


def test_reciprocal_strips_pure_delay():
    delayed = RationalSystem([0, 0, 1], [1, -1, -1])
    assert reciprocal_system(delayed) == reciprocal_system(fibonacci_system())


def test_reciprocal_pole_inversion():
    flipped = reciprocal_system(min_phase_system())
    assert [(p.value, p.multiplicity) for p in flipped.poles()] == [(PHI, 2)]


@pytest.mark.parametrize("value", [2, Fraction(2)])
def test_rational_pole_values_are_stored_as_field_elements(value):
    sys_ = RationalSystem([1], [1, -2], [Pole(value)])
    assert isinstance(sys_.poles()[0].value, QuadRational)
    flipped = reciprocal_system(sys_)
    assert flipped == RationalSystem([Fraction(1, 2)], [1, Fraction(-1, 2)])
    assert flipped.poles() == (Pole(QuadRational(Fraction(1, 2))),)


def test_reciprocal_without_causal_form_is_rejected():
    with pytest.raises(MalformedSystemError):
        reciprocal_system(RationalSystem([0, 0, 1], [1, -1]))


def test_reciprocal_causal_response_alternates_sign():
    flipped = reciprocal_system(fibonacci_system())
    roc = enumerate_rocs(flipped.poles())[-1]
    win = inverse_z(partial_fractions(flipped), roc, 0, 40)
    ref = fib(42)
    for n, v in win.items():
        assert v == (-1) ** n * ref[n + 1]


# ---------------------------------------------------------
# Cascades
# ---------------------------------------------------------
def test_self_cascade_keeps_exact_double_poles():
    doubled = cascade(fibonacci_system(), fibonacci_system())
    assert doubled.order == 4
    assert [(p.value, p.multiplicity) for p in doubled.poles()] == [
        (PSI, 2),
        (PHI, 2),
    ]
    assert [int(c) for c in doubled.denominator.coeffs] == [1, -2, -1, 2, 1]


def test_cascade_with_accumulator():
    combined = cascade(fibonacci_system(), accumulator_system())
    assert [p.value for p in combined.poles()] == [PSI, QuadRational(1, 0, 5), PHI]
    assert combined == fibonacci_system() * accumulator_system()


def test_cascade_is_commutative():
    a, b = fibonacci_system(), accumulator_system()
    assert cascade(a, b) == cascade(b, a)


def test_cascade_factors_do_not_depend_on_which_poles_were_asked_first():
    # (1 - z^-1 - z^-2)^2 (1 - 3 z^-1 + z^-2) multiplied out, then 1 + z^-1 - z^-2.
    den_a = [1, -5, 6, 3, -6, -1, 1]
    own = {(PHI, 2), (PSI, 2), (PHI + 1, 1), (2 - PHI, 1)}
    want = own | {(PHI - 1, 1), (PSI - 1, 1)}
    for warm in (False, True):
        a, b = RationalSystem([1], den_a), RationalSystem([1], [1, 1, -1])
        if warm:
            a.poles()
            b.poles()
        combined = cascade(a, b)
        assert all(p.exact for p in combined.poles())
        assert {(p.value, p.multiplicity) for p in combined.poles()} == want
    assert {(p.value, p.multiplicity) for p in RationalSystem([1], den_a).poles()} == own


def test_cross_field_cascade_falls_back_to_numeric_poles():
    other = RationalSystem([1], [1, -2, -1])
    combined = cascade(other, fibonacci_system())
    assert not any(p.exact for p in combined.poles())
    mods = sorted(abs(p.as_complex()) for p in combined.poles())
    expect = sorted([2**0.5 - 1, float(PHI) - 1, float(PHI), 1 + 2**0.5])
    assert mods == pytest.approx(expect, abs=1e-9)


@st.composite
def _sections(draw, d):
    """One or two denominator sections, each to a multiplicity 1-2: exact
    linear factors over Q and Q(sqrt(d)), rational quadratics (rational,
    quadratic-field or complex pairs) and rational cubics (mostly numeric)."""
    sections = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(("linear", "quadratic", "cubic")))
        if kind == "linear":
            coeffs = [1, -QuadRational(draw(_PART), draw(_PART), d)]
        else:
            size = 2 if kind == "quadratic" else 3
            coeffs = [1] + draw(st.lists(_PART, min_size=size, max_size=size))
        assume(coeffs[-1])
        sections.append((coeffs, (), draw(st.integers(1, 2))))
    return sections


def _record_roots(record):
    """A factor record as the multiset of (root as a complex, multiplicity)."""
    return Counter(
        (complex(z), f.multiplicity)
        for f in record
        for z in ((f.value,) if isinstance(f, Pole) else f.roots)
    )


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    st.sampled_from((2, 3, 5)).flatmap(lambda d: st.tuples(_sections(d), _sections(d))),
    st.sampled_from(("cascade", "self-cascade", "reciprocal")),
)
# Q(sqrt(5)) x Q(sqrt(2)): exact records whose roots come from two fields.
@example(([([1, -1, -1], (), 1)], [([1, -2, -1], (), 1)]), "cascade")
# A numeric cubic beside the Fibonacci pair, and squared.
@example(([([1, Fraction(-1, 2), Fraction(-1, 3), Fraction(1, 7)], (), 1)],
          [([1, -1, -1], (), 1)]), "cascade")
@example(([([1, Fraction(-1, 2), Fraction(-1, 3), Fraction(1, 7)], (), 1),
           ([1, -1, -1], (), 2)], [([1, -2], (), 1)]), "self-cascade")
def test_built_record_equals_the_record_found_from_scratch(pair, op):
    import fiblti.lti as lti

    a, b = (RationalSystem([1], _expand(sections)) for sections in pair)
    try:
        built = {
            "cascade": lambda: cascade(a, b),
            "self-cascade": lambda: cascade(a, a),
            "reciprocal": lambda: reciprocal_system(a),
        }[op]()
        found = lti._factorise(built.denominator)
        record = built._record()
    except ArithmeticError:
        assume(False)
    assert _record_roots(record) == _record_roots(found)


# ---------------------------------------------------------
# Sequence windows
# ---------------------------------------------------------
def test_window_exactness_and_lookup():
    win = SequenceWindow(-2, [Fraction(1, 2), 0, 3, GOLDEN_RATIO])
    assert win.exact
    assert win.n0 == -2 and win.n1 == 1
    assert win.value_at(-2) == Fraction(1, 2)
    assert win.value_at(1) == GOLDEN_RATIO
    assert win.value_at(99) == 0
    assert list(win.items())[0] == (-2, QuadRational(Fraction(1, 2), 0, 5))


def test_window_float_values_flip_the_exact_flag():
    win = SequenceWindow(0, [1.0, 2.5])
    assert not win.exact
    assert win.to_floats() == [1.0, 2.5]
    with pytest.raises(ValueError):
        win.to_ints()


def test_window_sum_with_an_inexact_window_is_inexact():
    for total in (
        SequenceWindow(0, [1.5]) + SequenceWindow(-1, [1, GOLDEN_RATIO]),
        SequenceWindow(-1, [1, GOLDEN_RATIO]) + SequenceWindow(0, [1.5]),
    ):
        assert not total.exact and total.n0 == -1
        assert total.values == (1.0, 1.5 + float(GOLDEN_RATIO))
    exact = SequenceWindow(0, [1, Fraction(1, 2)]) + SequenceWindow(1, [GOLDEN_RATIO])
    assert exact.exact and exact.values == (1, Fraction(1, 2) + GOLDEN_RATIO)


def test_window_to_ints_requires_integers():
    with pytest.raises(ValueError):
        SequenceWindow(0, [Fraction(1, 2)]).to_ints()
    assert SequenceWindow(0, [1, 2, 3]).to_ints() == [1, 2, 3]


def test_window_equality():
    assert SequenceWindow(0, [1, 2]) == SequenceWindow(0, [1, 2])
    assert SequenceWindow(0, [1, 2]) != SequenceWindow(1, [1, 2])
    assert SequenceWindow(0, [1, 2]) != SequenceWindow(0, [1, 3])


def test_window_rejects_values_from_two_fields():
    with pytest.raises(FieldMismatchError):
        SequenceWindow(0, [QuadRational(0, 1, 2), QuadRational(0, 1, 5)])
    win = SequenceWindow(0, [1, QuadRational(0, 1, 2)])
    assert win.value_at(0) == 1 and win.value_at(5) == 0


# ---------------------------------------------------------
# records: repr, equality, hashing and read-only fields
# ---------------------------------------------------------
def test_record_reprs():
    half = Fraction(1, 2)
    expansion = partial_fractions(RationalSystem([1, 2, 3], [1, -half]))
    assert repr(expansion.terms[0].pole) == "Pole(value=QuadRational(1/2, 0, d=5), multiplicity=1)"
    assert repr(Pole(complex(0.5, 1), 2)) == "Pole(value=(0.5+1j), multiplicity=2)"
    assert repr(Roc(half, None)) == "Roc(r_in=Fraction(1, 2), r_out=None)"
    assert repr(expansion.terms[0]) == (
        "PartialFractionTerm(pole=Pole(value=QuadRational(1/2, 0, d=5), multiplicity=1),"
        " order=1, coefficient=QuadRational(17, 0, d=5))"
    )
    assert repr(expansion) == (
        f"PartialFractionExpansion(terms=({expansion.terms[0]!r},),"
        " poly_part=Polynomial([-16, -6]))"
    )


def test_records_compare_and_hash_by_value():
    records = (
        lambda: Pole(PHI, 2),
        lambda: Roc(Fraction(1, 2), PHI),
        lambda: PartialFractionTerm(Pole(PSI), 1, SQRT5),
        lambda: partial_fractions(fibonacci_system()),
    )
    for make in records:
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
    assert Pole(PHI, 2) != Pole(PHI, 1)
    assert Roc(Fraction(1, 2), None) != Roc(Fraction(1, 3), None)


def test_expansion_equality_and_repr_ignore_its_system():
    recorded = partial_fractions(fibonacci_system())
    bare = PartialFractionExpansion(recorded.terms, recorded.poly_part)
    assert recorded.system is not None and bare.system is None
    assert recorded == bare and hash(recorded) == hash(bare)
    assert repr(recorded) == repr(bare)
    assert "system" not in repr(recorded)


def test_record_fields_are_read_only():
    expansion = partial_fractions(fibonacci_system())
    for record, name, value in (
        (Pole(PHI), "multiplicity", 2),
        (Roc(Fraction(1, 2), None), "r_out", PHI),
        (expansion.terms[0], "order", 2),
        (expansion, "system", None),
        (expansion, "terms", ()),
    ):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
