# tests/test_lti.py
from fractions import Fraction

import numpy as np
import pytest

from fiblti.lti import (
    InvalidRocError,
    MalformedSystemError,
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


def test_polynomial_divmod_property():
    rng = np.random.default_rng(47)
    for _ in range(30):
        num = random_poly(rng, max_degree=6)
        den = random_poly(rng, max_degree=3)
        if den.is_zero:
            continue
        quot, rem = divmod(num, den)
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
    got = inverse_z(partial_fractions(raw), raw_rocs[-1], 0, 12)
    want = [float(v) for v in inverse_z(partial_fractions(exact), exact_rocs[-1], 0, 12)]
    assert all(abs(g - w) <= 1e-9 * max(map(abs, want)) for g, w in zip(got, want, strict=True))


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
    win = inverse_z(partial_fractions(sys_), roc, 0, 30)
    assert not win.exact
    sim = simulate_difference_equation(sys_, make_impulse(), 30)
    for (n, got), (_, ref) in zip(win.items(), sim.items()):
        assert got == pytest.approx(float(ref), abs=1e-9)


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


def test_cross_field_cascade_falls_back_to_numeric_poles():
    other = RationalSystem([1], [1, -2, -1])
    combined = cascade(other, fibonacci_system())
    assert combined.pole_factors is None
    mods = sorted(abs(p.as_complex()) for p in combined.poles())
    expect = sorted([2**0.5 - 1, float(PHI) - 1, float(PHI), 1 + 2**0.5])
    assert mods == pytest.approx(expect, abs=1e-9)


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
