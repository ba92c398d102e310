# tests/test_qfield.py
import math
import time
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiblti.qfield import (
    GOLDEN_RATIO,
    GOLDEN_RATIO_CONJUGATE,
    SQRT5,
    FieldMismatchError,
    QuadRational,
    _step_scale,
    int_sqrt_exact,
    sqrt_exact,
    square_free_decompose,
)

getcontext().prec = 80

# Independent float oracle: 80-digit decimal evaluation of a + b*sqrt(d).
_SQRT_DEC = {d: Decimal(d).sqrt() for d in (2, 3, 5, 6, 7, 10)}


def decimal_value(x: QuadRational) -> Decimal:
    a = Decimal(x.a.numerator) / Decimal(x.a.denominator)
    b = Decimal(x.b.numerator) / Decimal(x.b.denominator)
    return a + b * _SQRT_DEC[x.d]


def random_elements(n=40, seed=20260814, d=5):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        a = Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 12)))
        b = Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 12)))
        out.append(QuadRational(a, b, d))
    return out


# ---------------------------------------------------------
# Integer helpers
# ---------------------------------------------------------
def test_int_sqrt_exact_known_values():
    assert int_sqrt_exact(0) == 0
    assert int_sqrt_exact(1) == 1
    assert int_sqrt_exact(4) == 2
    assert int_sqrt_exact(144) == 12
    for m in (2, 3, 5, 99, 1000001):
        assert int_sqrt_exact(m) is None
    with pytest.raises(ValueError):
        int_sqrt_exact(-1)


def test_int_sqrt_exact_roundtrip():
    for k in range(0, 300):
        assert int_sqrt_exact(k * k) == k
        if k > 1:
            assert int_sqrt_exact(k * k + 1) is None


def test_square_free_decompose_known_values():
    assert square_free_decompose(1) == (1, 1)
    assert square_free_decompose(5) == (1, 5)
    assert square_free_decompose(12) == (2, 3)
    assert square_free_decompose(18) == (3, 2)
    assert square_free_decompose(49) == (7, 1)
    assert square_free_decompose(360) == (6, 10)


def test_square_free_decompose_exhaustive_small():
    """s*s*k == m with k square-free, for every m up to 2000."""
    for m in range(1, 2001):
        s, k = square_free_decompose(m)
        assert s * s * k == m
        assert all(k % (p * p) for p in range(2, int(k**0.5) + 1))


def test_square_free_decompose_decides_every_64_bit_input():
    p = 2642239  # the largest prime whose cube is below 2^64
    assert square_free_decompose(p**3) == (p, p)
    q, r = 4294967291, 4294967279  # the two largest primes below 2^32
    assert square_free_decompose(q * q) == (q, 1)
    assert square_free_decompose(q * r) == (1, q * r)


def test_square_free_decompose_gives_up_on_large_cofactors():
    m = (2**61 - 1) * (2**31 - 1)
    with pytest.raises(ValueError):
        square_free_decompose(m)
    assert sqrt_exact(m) is None
    with pytest.raises(ValueError):
        QuadRational(1, 1, m)


# Tap denominators from small primes and from 1000003, a prime above the
# step scale's trial bound; 1000003^2 is left to it undecided.
_TAP_DENOMINATORS = st.builds(
    lambda es, big: 2 ** es[0] * 3 ** es[1] * 5 ** es[2] * 7 ** es[3] * 1000003**big,
    st.lists(st.integers(0, 6), min_size=4, max_size=4),
    st.integers(0, 2),
)
_TAP_PARTS = st.builds(Fraction, st.integers(-9, 9), _TAP_DENOMINATORS)


# Taps over Q, Q(sqrt(2)) or Q(sqrt(5)), one field per draw.
_STEP_TAPS = st.sampled_from([0, 2, 5]).flatmap(
    lambda d: st.lists(
        st.builds(QuadRational, _TAP_PARTS, _TAP_PARTS if d else st.just(0), st.just(d or 5)),
        min_size=1,
        max_size=6,
    )
)


# The denominator written out of the rational cascade whose taps have common
# denominator 64, and of the Q(sqrt(5)) cascade whose taps have 288.
_TAPS_64 = [QuadRational(v) for v in "4,9/16,-457/32,-1219/64,-403/64,105/64,25/32".split(",")]
_TAPS_288 = [
    QuadRational(Fraction(-13, 12), Fraction(-1, 4)),
    QuadRational(Fraction(-11, 36), Fraction(1, 12)),
    QuadRational(Fraction(31, 72), Fraction(5, 36)),
    QuadRational(Fraction(7, 96), Fraction(-1, 288)),
    QuadRational(Fraction(-7, 144), Fraction(-1, 48)),
    QuadRational(Fraction(-1, 96), Fraction(-1, 288)),
]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_STEP_TAPS, st.none())
@example(_TAPS_64, 4)
@example(_TAPS_288, 12)
@example([QuadRational(Fraction(1, 2)), QuadRational(Fraction(1, 9)), QuadRational(Fraction(-1, 50))], 30)
# Over Q(sqrt(2)), L = 50 and s = 10.
@example([QuadRational(0, Fraction(1, 10), 2), QuadRational(Fraction(1, 50), Fraction(3, 50), 2)], 10)
# The square of a prime above the trial bound goes into the scale whole.
@example([QuadRational(Fraction(1, 2)), QuadRational(Fraction(1, 1000003**2))], 2 * 1000003**2)
def test_step_scale_is_the_least_integer_scale_of_the_taps(taps, want):
    """s^k D_k is an integer pair for every tap k >= 1, s divides the taps'
    common denominator, and no prime below the trial bound can leave s."""
    ds = [QuadRational(1), *taps]
    s = _step_scale(ds)
    if want is not None:
        assert s == want
    assert math.lcm(*(q for v in ds for q in (v.a.denominator, v.b.denominator))) % s == 0

    def scales(t):
        return all(
            (v.a * t**k).denominator == 1 and (v.b * t**k).denominator == 1
            for k, v in enumerate(ds[1:], 1)
        )

    assert scales(s)
    for p in (2, 3, 5, 7):
        assert s % p or not scales(s // p)


# ---------------------------------------------------------
# Construction and canonical text form
# ---------------------------------------------------------
def test_constructor_accepts_exact_types_only():
    assert QuadRational(1, 2, 5).a == 1
    assert QuadRational(Fraction(1, 2), Fraction(-3, 4), 5).b == Fraction(-3, 4)
    assert QuadRational("1/2", "3", 5) == QuadRational(Fraction(1, 2), 3, 5)
    with pytest.raises(TypeError):
        QuadRational(1.5, 0, 5)
    with pytest.raises(TypeError):
        QuadRational(0, 0.25, 5)


def test_radicand_must_be_square_free_and_at_least_two():
    for bad in (-5, 0, 1, 4, 9, 12, 50):
        with pytest.raises(ValueError):
            QuadRational(1, 1, bad)
    for good in (2, 3, 5, 6, 7, 10):
        assert QuadRational(1, 1, good).d == good


def test_equal_rationals_have_equal_repr():
    assert repr(QuadRational(0, 1, 2) ** 2) == repr(QuadRational(2))
    assert repr(QuadRational(3, 0, 7)) == repr(QuadRational(3)) == "QuadRational(3, 0, d=5)"
    assert repr(QuadRational(1, 1, 3) - QuadRational(0, 1, 3)) == repr(QuadRational(1))


def test_str_is_canonical():
    assert str(QuadRational(3, 0, 5)) == "3"
    assert str(QuadRational(Fraction(-5, 2), 0, 5)) == "-5/2"
    assert str(GOLDEN_RATIO) == "1/2+1/2*sqrt(5)"
    assert str(GOLDEN_RATIO_CONJUGATE) == "1/2-1/2*sqrt(5)"
    assert str(QuadRational(0, Fraction(-1, 5), 5)) == "0-1/5*sqrt(5)"


def test_parse_str_roundtrip():
    for x in random_elements(60):
        assert QuadRational.parse(str(x)) == x
    for x in random_elements(20, seed=7, d=3):
        assert QuadRational.parse(str(x)) == x


def test_parse_reads_radicand_from_text():
    assert QuadRational.parse("1+1*sqrt(3)").d == 3
    assert QuadRational.parse("7").d == 5


def test_parse_rejects_garbage():
    for bad in ("", "one", "1+sqrt", "1+2*sqrt(4)", "1.5"):
        with pytest.raises(ValueError):
            QuadRational.parse(bad)
    with pytest.raises(ZeroDivisionError):
        QuadRational.parse("1/0")


# ---------------------------------------------------------
# Field axioms on a seeded sample
# ---------------------------------------------------------
def test_field_axioms():
    xs = random_elements(12)
    for x in xs:
        for y in xs:
            assert x + y == y + x
            assert x * y == y * x
            for z in xs[:6]:
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z


def test_additive_and_multiplicative_identities():
    zero = QuadRational(0, 0, 5)
    one = QuadRational(1, 0, 5)
    for x in random_elements(20):
        assert x + zero == x
        assert x * one == x
        assert x + (-x) == zero
        assert x - x == zero
        if x:
            assert x * x.inv() == one
            assert (x / x) == one


def test_integer_and_fraction_operands_coerce():
    x = GOLDEN_RATIO
    assert x + 1 == QuadRational(Fraction(3, 2), Fraction(1, 2), 5)
    assert 1 + x == x + 1
    assert 2 * x == x + x
    assert x - Fraction(1, 2) == QuadRational(0, Fraction(1, 2), 5)
    assert Fraction(1, 2) - x == -(x - Fraction(1, 2))
    assert (x / 2) * 2 == x
    assert 1 / GOLDEN_RATIO == GOLDEN_RATIO.inv()


def test_float_operands_are_rejected():
    with pytest.raises(TypeError):
        GOLDEN_RATIO + 0.5
    with pytest.raises(TypeError):
        0.5 * GOLDEN_RATIO


def test_division_by_zero():
    zero = QuadRational(0, 0, 5)
    with pytest.raises(ZeroDivisionError):
        GOLDEN_RATIO / zero
    with pytest.raises(ZeroDivisionError):
        zero.inv()


# ---------------------------------------------------------
# Conjugation, norm and powers
# ---------------------------------------------------------
def test_norm_is_x_times_conjugate():
    for x in random_elements(30):
        n = x.norm()
        assert isinstance(n, Fraction)
        assert x * x.conj() == QuadRational(n, 0, 5)


def test_norm_is_multiplicative():
    xs = random_elements(10, seed=3)
    for x in xs:
        for y in xs:
            assert (x * y).norm() == x.norm() * y.norm()


def test_pow_matches_repeated_multiplication():
    for x in random_elements(8, seed=11):
        acc = QuadRational(1, 0, 5)
        for n in range(6):
            assert x**n == acc
            acc = acc * x
        if x:
            assert x**-3 == x.inv() ** 3
            assert x**-3 * x**3 == 1


def test_golden_ratio_identities():
    phi, psi = GOLDEN_RATIO, GOLDEN_RATIO_CONJUGATE
    assert phi * phi == phi + 1
    assert phi * psi == -1
    assert phi + psi == 1
    assert phi - psi == SQRT5
    assert SQRT5 * SQRT5 == 5
    assert psi == -phi.inv()
    assert phi.conj() == psi


# ---------------------------------------------------------
# Exact sign, ordering and comparisons
# ---------------------------------------------------------
def sqrt5_convergents(count):
    """Continued-fraction convergents p/q of sqrt(5); p^2 - 5 q^2 = -/+1."""
    ps, qs = [2, 9], [1, 4]
    while len(ps) < count:
        ps.append(4 * ps[-1] + ps[-2])
        qs.append(4 * qs[-1] + qs[-2])
    return list(zip(ps, qs))


def test_sign_resolves_convergent_gaps_exactly():
    """p/q - sqrt(5) alternates sign even when the gap is far below 1 ulp."""
    for k, (p, q) in enumerate(sqrt5_convergents(30)):
        assert p * p - 5 * q * q == (-1 if k % 2 == 0 else 1)
        diff = QuadRational(Fraction(p, q), 0, 5) - SQRT5
        assert diff.sign() == (-1 if k % 2 == 0 else 1)
        assert (diff > 0) == (k % 2 == 1)


def test_sign_agrees_with_decimal_oracle():
    for x in random_elements(40, seed=5):
        ref = decimal_value(x)
        expect = 0 if ref == 0 else (1 if ref > 0 else -1)
        assert x.sign() == expect


def test_ordering_matches_decimal_oracle():
    xs = random_elements(25, seed=9)
    by_field = sorted(xs)
    by_ref = sorted(xs, key=decimal_value)
    assert by_field == by_ref


def test_abs_and_bool():
    assert abs(GOLDEN_RATIO_CONJUGATE) == -GOLDEN_RATIO_CONJUGATE
    assert abs(GOLDEN_RATIO) == GOLDEN_RATIO
    assert not QuadRational(0, 0, 5)
    assert QuadRational(0, 1, 5)


# ---------------------------------------------------------
# Cross-field behaviour
# ---------------------------------------------------------
def test_rational_values_embed_in_any_field():
    three_in_7 = QuadRational(3, 0, 7)
    three_in_5 = QuadRational(3, 0, 5)
    assert three_in_7 == three_in_5
    assert three_in_7 == 3
    assert three_in_7 == Fraction(3)
    assert hash(three_in_7) == hash(three_in_5) == hash(Fraction(3))
    assert (GOLDEN_RATIO + three_in_7).d == 5


def test_irrational_cross_field_arithmetic_raises():
    x = QuadRational(1, 1, 2)
    y = QuadRational(1, 1, 3)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y):
        with pytest.raises(FieldMismatchError):
            op()


def test_irrational_values_in_different_fields_are_unequal():
    assert QuadRational(0, 1, 2) != QuadRational(0, 1, 3)
    assert QuadRational(0, 1, 2) != Fraction(3, 2)


def test_rational_values_equal_floats_by_exact_value():
    # As Fraction compares: a finite float by its exact binary value.
    assert QuadRational(0) == 0.0
    assert 0.5 == QuadRational(Fraction(1, 2))
    assert QuadRational(-3) == -3.0
    assert QuadRational(Fraction(1, 3)) != 1 / 3
    assert QuadRational(Fraction(1 / 3)) == 1 / 3
    assert QuadRational(0, 1, 2) != float(QuadRational(0, 1, 2))
    for x in (float("inf"), float("-inf"), float("nan")):
        assert QuadRational(0) != x
    # Equal values hash alike, so floats and field elements share dict keys.
    for v in (0.0, 0.5, -3.0, 2.0**-60, 1e300):
        assert hash(QuadRational(Fraction(v))) == hash(v)
        assert {v: "hit"}[QuadRational(Fraction(v))] == "hit"


# ---------------------------------------------------------
# Exact-to-float conversion
# ---------------------------------------------------------
def test_float_matches_decimal_oracle():
    for x in random_elements(40, seed=13):
        ref = float(decimal_value(x))
        got = float(x)
        assert got == pytest.approx(ref, rel=1e-15, abs=1e-300)


def test_float_survives_catastrophic_cancellation():
    """psi^n = a - b*sqrt(5) with huge a, b; the difference is ~phi^-n."""
    for n in (40, 60, 90, 120):
        x = GOLDEN_RATIO_CONJUGATE**n
        ref = decimal_value(x)
        naive = float(x.a) - float(x.b) * float(_SQRT_DEC[5])
        got = float(x)
        assert abs(Decimal(got) - ref) <= abs(ref) * Decimal("1e-13")
        # The two-float evaluation has already lost every significant digit.
        assert abs(Decimal(naive) - ref) > abs(ref)


def test_float_keeps_sign_of_sub_ulp_differences():
    for k, (p, q) in enumerate(sqrt5_convergents(25)[5:], start=5):
        diff = QuadRational(Fraction(p, q), 0, 5) - SQRT5
        f = float(diff)
        assert f != 0.0
        assert (f > 0) == (k % 2 == 1)


def test_complex_conversion():
    assert complex(GOLDEN_RATIO) == complex(float(GOLDEN_RATIO), 0.0)


# ---------------------------------------------------------
# Integer access
# ---------------------------------------------------------
def test_int_conversion():
    assert int(QuadRational(7, 0, 5)) == 7
    assert QuadRational(7, 0, 5).is_integer
    assert not GOLDEN_RATIO.is_integer
    with pytest.raises(ValueError):
        int(GOLDEN_RATIO)
    with pytest.raises(ValueError):
        int(QuadRational(Fraction(1, 2), 0, 5))


def test_as_fraction():
    assert QuadRational(Fraction(3, 4), 0, 5).as_fraction() == Fraction(3, 4)
    with pytest.raises(ValueError):
        GOLDEN_RATIO.as_fraction()


# ---------------------------------------------------------
# Exact square roots
# ---------------------------------------------------------
def test_sqrt_exact_of_perfect_squares():
    rng = np.random.default_rng(17)
    for _ in range(30):
        p = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
        q = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
        x = QuadRational(p, q, 5)
        root = sqrt_exact(x * x)
        assert root is not None
        assert root * root == x * x
        assert root.sign() >= 0


def test_sqrt_exact_known_values():
    assert sqrt_exact(QuadRational(9, 0, 5)) == 3
    assert sqrt_exact(QuadRational(Fraction(9, 4), 0, 5)) == Fraction(3, 2)
    assert sqrt_exact(QuadRational(5, 0, 5)) == SQRT5
    assert sqrt_exact(QuadRational(6, 2, 5)) == QuadRational(1, 1, 5)
    assert sqrt_exact(GOLDEN_RATIO * GOLDEN_RATIO) == GOLDEN_RATIO
    assert sqrt_exact(QuadRational(0, 0, 5)) == 0
    # A rational root finds the field it needs, whatever the input's tag.
    assert sqrt_exact(QuadRational(2, 0, 5)) == QuadRational(0, 1, 2)
    assert sqrt_exact(8) == QuadRational(0, 2, 2)
    assert sqrt_exact(Fraction(3, 8)) == QuadRational(0, Fraction(1, 4), 6)


def test_sqrt_exact_rejects_non_squares():
    assert sqrt_exact(QuadRational(-4, 0, 5)) is None
    assert sqrt_exact(-2) is None
    assert sqrt_exact(SQRT5) is None
    assert sqrt_exact(GOLDEN_RATIO) is None


def test_sqrt_exact_of_a_field_element_skips_trial_division():
    # The norm N^2 - 5 is 128 bits and no square.  Splitting off its square
    # part by trial division took about 0.3 s; only a rational root matters.
    n = 4294967291 * 4294967279
    x = QuadRational(n, 1, 5)
    start = time.perf_counter()
    assert sqrt_exact(x) is None
    assert time.perf_counter() - start < 0.05
    assert sqrt_exact(x * x) == x


_RADICANDS = st.sampled_from([2, 3, 5, 6, 7])
_RATIONALS = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**4))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_RATIONALS, _RATIONALS, _RADICANDS)
def test_sqrt_exact_of_a_square_is_its_modulus(a, b, d):
    x = QuadRational(a, b, d)
    assert sqrt_exact(x * x) == abs(x)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.sampled_from([0, 2, 3, 5, 7]),
    st.integers(-12, 40),
)
def test_pow_is_the_product_of_n_copies(a, b, d, n):
    # d = 0 draws a rational x.
    x = QuadRational(a, b if d else 0, d or 5)
    if n < 0 and not x:
        with pytest.raises(ZeroDivisionError):
            x**n
        return
    factor = x if n >= 0 else x.inv()
    want = QuadRational(1)
    for _ in range(abs(n)):
        want = want * factor
    got = x**n
    assert got == want
    # Canonical: reduced components, and radicand 5 once the result is rational.
    rebuilt = QuadRational(got.a, got.b, got.d)
    assert got == rebuilt and hash(got) == hash(rebuilt) == hash(want)
    assert str(got) == str(rebuilt) == str(want)
    assert repr(got) == repr(want)


def test_pow_of_zero():
    zero = QuadRational(0)
    assert zero**0 == 1 and zero**5 == 0
    with pytest.raises(ZeroDivisionError):
        zero**-1


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_RATIONALS)
def test_sqrt_exact_of_a_rational_lives_in_its_square_free_part(r):
    root = sqrt_exact(r)
    if r < 0:
        assert root is None
        return
    assert root * root == r and root.sign() >= 0
    _, k = square_free_decompose(r.numerator * r.denominator) if r else (0, 1)
    assert root.is_rational if k == 1 else (root.a == 0 and root.d == k)
