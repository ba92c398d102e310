# tests/test_response.py
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

try:
    import mpmath  # test-only oracle
except ImportError:
    mpmath = None

from fiblti.lti import (
    MalformedSystemError,
    RationalSystem,
    accumulator_system,
    cascade,
    enumerate_rocs,
    fibonacci_system,
    inverse_z,
    min_phase_system,
    partial_fractions,
    reciprocal_system,
)
from fiblti.cli import main
from fiblti.qfield import GOLDEN_RATIO, FieldMismatchError, QuadRational
from fiblti.response import (
    Signal,
    compare_magnitudes,
    convolve,
    fibonacci_band_features,
    fibonacci_magnitude_law,
    freq_response,
    make_impulse,
    make_step,
    min_phase_impulse,
    simulate_difference_equation,
    step_response_closed_form,
)

PHI = GOLDEN_RATIO


def fib(count):
    out = [0, 1]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


def random_signal(rng, max_len=6):
    n0 = int(rng.integers(-3, 4))
    length = int(rng.integers(1, max_len + 1))
    values = [Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
              for _ in range(length)]
    return Signal(n0, values)


# ---------------------------------------------------------
# Signals
# ---------------------------------------------------------
def test_signal_window_and_lookup():
    x = Signal(-1, [1, Fraction(1, 2), 0, 3])
    assert x.n0 == -1 and x.n1 == 2
    assert x.value_at(-1) == 1
    assert x.value_at(0) == Fraction(1, 2)
    assert x.value_at(5) == 0
    assert len(x) == 4


def test_signal_algebra():
    x = Signal(0, [1, 2])
    assert x.shifted(3) == Signal(3, [1, 2])
    assert x.scaled(Fraction(1, 2)) == Signal(0, [Fraction(1, 2), 1])
    assert x.scaled(0.5) == x.scaled(Fraction(1, 2)) and x.scaled(0.5).exact
    assert x + Signal(1, [10]) == Signal(0, [1, 12])
    assert x + Signal(3, [5]) == Signal(0, [1, 2, 0, 5])


def test_factories():
    assert make_impulse() == Signal(0, [1])
    assert make_step(4) == Signal(0, [1, 1, 1, 1])
    with pytest.raises(ValueError):
        make_step(0)


# ---------------------------------------------------------
# Exact time-domain responses
# ---------------------------------------------------------
def test_impulse_simulation_reproduces_the_shifted_sequence():
    win = simulate_difference_equation(fibonacci_system(), make_impulse(), 40)
    assert win.to_ints() == fib(42)[1:]


def test_simulation_agrees_with_the_inverse_transform():
    sys_ = fibonacci_system()
    win = inverse_z(partial_fractions(sys_), enumerate_rocs(sys_.poles())[-1], 0, 40)
    sim = simulate_difference_equation(sys_, make_impulse(), 40)
    assert win == sim


def test_convolution_matches_simulation_inside_the_valid_window():
    rng = np.random.default_rng(29)
    h = simulate_difference_equation(fibonacci_system(), make_impulse(), 30)
    for _ in range(10):
        x = random_signal(rng)
        y = convolve(x, h)
        sim = simulate_difference_equation(fibonacci_system(), x, x.n0 + 20)
        for n in range(x.n0, x.n0 + 21):
            assert y.value_at(n) == sim.value_at(n)


def test_convolution_is_commutative():
    x = Signal(0, [1, 2, 3])
    y = Signal(-1, [Fraction(1, 2), 5])
    assert convolve(x, y) == convolve(y, x)


def test_convolution_rejects_empty_input():
    with pytest.raises(ValueError):
        convolve(Signal(0, []), Signal(0, [1]))


def naive_convolve(xs, hs):
    """The double loop `convolve` replaced: each sum starts at its first product."""
    out = [None] * (len(xs) + len(hs) - 1)
    for i, a in enumerate(xs):
        for j, b in enumerate(hs):
            out[i + j] = a * b if out[i + j] is None else out[i + j] + a * b
    return out


# Signed components from 0 and +-1 up to 30-digit numerators over 25-digit
# denominators, so the products need signed slots and common denominators;
# +-(2^k - 1) fill their bit length, as products that reach a slot's edge do.
COMPONENTS = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**25)),
    st.builds(lambda k, s: s * (2**k - 1), st.integers(1, 100), st.sampled_from([1, -1])),
)
FIELDS = (2, 3, 5)


def field_values(d):
    """Rational values built in any field, plus irrational ones in Q(sqrt(d))."""
    rational = st.builds(QuadRational, COMPONENTS, st.just(0), st.sampled_from(FIELDS))
    if d is None:
        return rational
    return st.one_of(rational, st.builds(QuadRational, COMPONENTS, COMPONENTS, st.just(d)))


@st.composite
def window_pairs(draw):
    d = draw(st.sampled_from(FIELDS))
    pair = []
    for field_d in draw(st.sampled_from([(None, None), (d, None), (None, d), (d, d)])):
        values = draw(st.lists(field_values(field_d), min_size=1, max_size=12))
        pair.append(Signal(draw(st.integers(-40, 40)), values))
    return pair


ZEROS = Signal(-3, [QuadRational(0, 0, 2)] * 4)
ROOT2 = Signal(2, [QuadRational(1, -1, 2), QuadRational(0, 1, 2), -7])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(window_pairs())
@example([ZEROS, ROOT2])
@example([ROOT2, ZEROS])
@example([Signal(-1, [QuadRational(0, 1, 3)]), Signal(0, [QuadRational(0, -1, 3)])])
@example([Signal(0, [Fraction(-10**40, 3)]), Signal(-5, [Fraction(1, 10**30), -1])])
# Each output 3 * 2047^2 needs all 24 bits its slot bound allows, plus a sign bit.
@example([Signal(0, [2047] * 3), Signal(0, [-2047] * 3)])
# Output 1 is 0 * 0 + (1 + sqrt 3)(-1 + sqrt 3) = 2: a rational sum of
# rational terms whose factors are irrational.
@example([
    Signal(0, [0, QuadRational(1, 1, 3)]),
    Signal(0, [QuadRational(-1, 1, 3), 0]),
])
def test_convolution_matches_the_double_loop(pair):
    x, h = pair
    y = convolve(x, h)
    want = naive_convolve(x.values, h.values)
    assert y.exact and y.n0 == x.n0 + h.n0
    assert y.values == tuple(want)
    # Equal rational values have one repr, so this checks .d too.
    assert [repr(v) for v in y.values] == [repr(v) for v in want]
    assert [str(v) for v in y.values] == [str(v) for v in want]


def test_convolution_rejects_values_from_two_fields():
    root2 = Signal(0, [1, QuadRational(0, 1, 2)])
    root3 = Signal(0, [QuadRational(1, 1, 3)])
    with pytest.raises(FieldMismatchError):
        convolve(root2, root3)
    with pytest.raises(FieldMismatchError):
        convolve(root3, root2)
    assert convolve(root2, Signal(0, [QuadRational(2, 0, 3)])).values == (2, QuadRational(0, 2, 2))


def test_convolving_a_float_window_with_an_exact_one_is_inexact():
    inexact = Signal(0, [1.5, 2.0])
    exact = Signal(1, [1, QuadRational(0, 1, 5)])
    root5 = 5 ** 0.5
    for y in (convolve(inexact, exact), convolve(exact, inexact)):
        assert not y.exact and y.n0 == 1
        assert y.values == pytest.approx([1.5, 2.0 + 1.5 * root5, 2.0 * root5])
    assert convolve(inexact, Signal(0, [1, 2])).values == (1.5, 5.0, 4.0)


def test_response_is_linear():
    rng = np.random.default_rng(31)
    sys_ = fibonacci_system()
    for _ in range(10):
        x, y = random_signal(rng), random_signal(rng)
        a, b = Fraction(3, 2), Fraction(-2)
        combined = x.scaled(a) + y.scaled(b)
        n1 = max(x.n1, y.n1) + 8
        yc = simulate_difference_equation(sys_, combined, n1)
        yx = simulate_difference_equation(sys_, x, n1)
        yy = simulate_difference_equation(sys_, y, n1)
        for n in range(combined.n0, n1 + 1):
            assert yc.value_at(n) == a * yx.value_at(n) + b * yy.value_at(n)


def test_response_is_shift_invariant():
    x = Signal(0, [1, Fraction(2, 3), -1])
    base = simulate_difference_equation(fibonacci_system(), x, 12)
    moved = simulate_difference_equation(fibonacci_system(), x.shifted(4), 16)
    for n in range(0, 13):
        assert base.value_at(n) == moved.value_at(n + 4)


def test_simulation_rejects_windows_before_the_input():
    with pytest.raises(ValueError):
        simulate_difference_equation(fibonacci_system(), make_impulse(), -1)


def naive_simulate(sys_, x, n1):
    """The per-sample field recursion `simulate_difference_equation` replaced."""
    num, den = sys_.numerator.coeffs, sys_.denominator.coeffs
    ys = []
    for n in range(x.n0, n1 + 1):
        acc = QuadRational(0)
        for k, c in enumerate(num):
            acc = acc + c * x.value_at(n - k)
        for k in range(1, len(den)):
            if n - k >= x.n0:
                acc = acc - den[k] * ys[n - k - x.n0]
        ys.append(acc)
    return ys


# Small signed fractions, so a 30-sample recursion over a common denominator
# L^j stays quick, plus a few 20-digit values.
SMALL = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**20)),
)


def small_values(d):
    rational = st.builds(QuadRational, SMALL)
    if d is None:
        return rational
    return st.one_of(rational, st.builds(QuadRational, SMALL, SMALL, st.just(d)))


@st.composite
def recursions(draw):
    """A system, an input and a last index, all in Q or in one Q(sqrt(d))."""
    values = small_values(draw(st.sampled_from([None, *FIELDS])))
    num = draw(st.lists(values, max_size=4))
    # Any nonzero constant term: the system normalizes it to 1.
    den = [draw(values.filter(bool)), *draw(st.lists(values, max_size=4))]
    xs = draw(st.lists(st.one_of(st.just(0), values), max_size=8))
    x = Signal(draw(st.integers(-20, 20)), xs)
    return RationalSystem(num, den), x, x.n0 + draw(st.integers(0, 30))


ROOT3 = QuadRational(0, 1, 3)
# Taps with common denominator 64, scaled by 4 in the recursion.
DEN_64 = [1, 4, Fraction(9, 16), Fraction(-457, 32), Fraction(-1219, 64), Fraction(-403, 64),
          Fraction(105, 64), Fraction(25, 32)]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(recursions())
# The output window is the input's first sample.
@example((RationalSystem([1, ROOT3], [2, -1, ROOT3]), Signal(-4, [ROOT3, 5]), -4))
# The window ends before the input does.
@example((RationalSystem([1], [Fraction(1, 3), 1]), Signal(-2, [1, 0, 2, 0, 7]), 0))
# An empty input and a zero numerator give zeros.
@example((fibonacci_system(), Signal(3, []), 6))
@example((RationalSystem([], [1, QuadRational(1, 1, 2)]), Signal(0, [QuadRational(0, 1, 2)]), 4))
# Rational outputs from an irrational recursion: 1/(1 - 2 sqrt 2 z^-1 + 2 z^-2).
@example((RationalSystem([1], [1, QuadRational(0, -2, 2), 2]), make_impulse(), 6))
# Fractional taps: common denominator 64, and a tap over the square of
# 1000003, a prime above the step scale's trial bound.
@example((RationalSystem([1, Fraction(-1, 2)], DEN_64), Signal(-3, [1, 0, Fraction(2, 3)]), 60))
@example((RationalSystem([1], [1, Fraction(-1, 2), Fraction(3, 1000003**2)]), make_impulse(), 30))
def test_simulation_matches_the_per_sample_field_recursion(case):
    sys_, x, n1 = case
    y = simulate_difference_equation(sys_, x, n1)
    want = naive_simulate(sys_, x, n1)
    assert y.exact and y.n0 == x.n0
    assert y.values == tuple(want)
    assert [repr(v) for v in y.values] == [repr(v) for v in want]
    assert [str(v) for v in y.values] == [str(v) for v in want]


def test_simulation_rejects_values_from_two_fields():
    root2, root5 = QuadRational(0, 1, 2), QuadRational(0, 1, 5)
    with pytest.raises(FieldMismatchError):
        simulate_difference_equation(RationalSystem([root2], [1, root5]), make_impulse(), 3)
    with pytest.raises(FieldMismatchError):
        simulate_difference_equation(RationalSystem([1], [1, root5]), Signal(0, [root2]), 3)
    # Also when the window ends before the input's irrational sample.
    with pytest.raises(FieldMismatchError):
        simulate_difference_equation(RationalSystem([1], [1, root5]), Signal(0, [1, root2]), 0)
    with pytest.raises(FieldMismatchError):
        simulate_difference_equation(RationalSystem([root2], [1]), Signal(0, [1, ROOT3]), 3)


def test_simulating_a_float_input_is_inexact():
    y = simulate_difference_equation(fibonacci_system(), Signal(0, [1.5, 0.5]), 4)
    assert not y.exact and y.values == (1.5, 2.0, 3.5, 5.5, 9.0)
    exact = simulate_difference_equation(min_phase_system(), Signal(-1, [3, 1]), 12)
    inexact = simulate_difference_equation(min_phase_system(), Signal(-1, [3.0, 1]), 12)
    assert not inexact.exact and inexact.n0 == -1
    assert inexact.values == pytest.approx(exact.to_floats(), rel=1e-12, abs=1e-12)
    zero = simulate_difference_equation(RationalSystem([], [1, -1]), Signal(0, [2.5]), 2)
    assert not zero.exact and zero.values == (0.0, 0.0, 0.0)


# Finite floats from subnormal up to 1e6, with and without a fraction part.
FLOATS = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.integers(-1000, 1000).map(float),
    st.sampled_from([5e-324, -2.5e-310, 0.1, -0.0]),
)


@st.composite
def float_windows(draw):
    """A nonempty float window: an empty one is exact."""
    return Signal(draw(st.integers(-20, 20)), draw(st.lists(FLOATS, min_size=1, max_size=8)))


def exact_twin(x):
    """The window with each float replaced by its exact binary value."""
    return x if x.exact else Signal(x.n0, [Fraction(v) for v in x.values])


def rounded(y):
    return tuple(float(v) for v in y.values)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(recursions(), float_windows())
def test_simulating_a_float_input_rounds_the_exact_result_once(case, x):
    sys_, _, _ = case
    n1 = x.n0 + 20
    want = simulate_difference_equation(sys_, exact_twin(x), n1)
    try:
        want = rounded(want)
    except OverflowError:
        with pytest.raises(OverflowError, match="leaves float range"):
            simulate_difference_equation(sys_, x, n1)
        return
    y = simulate_difference_equation(sys_, x, n1)
    assert not y.exact and y.n0 == x.n0 and y.values == want


@settings(derandomize=True, deadline=None, max_examples=200)
@given(float_windows(), window_pairs())
def test_convolving_a_float_window_rounds_the_exact_result_once(x, pair):
    h = pair[0]
    for a, b in ((x, h), (h, x), (x, exact_twin(x))):
        y = convolve(a, b)
        assert not y.exact and y.n0 == a.n0 + b.n0
        assert y.values == rounded(convolve(exact_twin(a), exact_twin(b)))


def test_float_outputs_beyond_float_range_raise():
    # From about n = 1475 on, 1.5 f(n+1) exceeds the largest float.
    with pytest.raises(OverflowError, match=r"window \[0, 2000\] leaves float range"):
        simulate_difference_equation(fibonacci_system(), Signal(0, [1.5]), 2000)
    with pytest.raises(OverflowError, match=r"window \[2, 3\] leaves float range"):
        convolve(Signal(1, [1e300, 1.0]), Signal(1, [1e300]))
    assert simulate_difference_equation(fibonacci_system(), Signal(0, [1.5]), 1400).values[-1] > 1e292


def test_non_finite_float_inputs_raise():
    # inf and nan have no exact binary value.
    with pytest.raises(OverflowError):
        simulate_difference_equation(fibonacci_system(), Signal(0, [math.inf]), 2)
    with pytest.raises(ValueError):
        convolve(Signal(0, [math.nan]), Signal(0, [1]))


def test_scaling_an_inexact_window_by_a_field_element_is_inexact():
    y = Signal(0, [1.5, -2.0]).scaled(PHI)
    assert not y.exact
    assert y.values == pytest.approx([1.5 * float(PHI), -2.0 * float(PHI)])
    assert Signal(0, [1.5]).scaled(Fraction(1, 2)).values == (0.75,)


# ---------------------------------------------------------
# Step response
# ---------------------------------------------------------
def test_step_response_listing():
    win = step_response_closed_form(8)
    assert win.to_ints() == [1, 2, 4, 7, 12, 20, 33, 54, 88]


def test_step_response_closed_form_is_the_offset_sequence():
    win = step_response_closed_form(40)
    ref = fib(44)
    for n, v in win.items():
        assert v == ref[n + 3] - 1


def test_step_response_matches_simulation():
    win = step_response_closed_form(25)
    sim = simulate_difference_equation(fibonacci_system(), make_step(26), 25)
    assert win == sim


def test_train_response_listing():
    win = simulate_difference_equation(fibonacci_system(), make_step(3), 8)
    assert win.to_ints() == [1, 2, 4, 6, 10, 16, 26, 42, 68]


def test_step_response_rejects_negative_bound():
    with pytest.raises(ValueError):
        step_response_closed_form(-1)


# ---------------------------------------------------------
# Minimum-phase impulse response
# ---------------------------------------------------------
def test_min_phase_closed_form_values():
    win = min_phase_impulse(30)
    inv_phi = PHI.inv()
    for n, v in win.items():
        assert v == -n * inv_phi**n


def test_min_phase_closed_form_matches_simulation_and_inverse():
    sys_ = min_phase_system()
    sim = simulate_difference_equation(sys_, make_impulse(), 50)
    win = inverse_z(partial_fractions(sys_), enumerate_rocs(sys_.poles())[-1], 0, 50)
    closed = min_phase_impulse(50)
    assert closed == sim
    assert closed == win


def test_min_phase_magnitude_decays_after_the_hump():
    win = min_phase_impulse(60)
    assert abs(win.value_at(2)) > abs(win.value_at(1))
    for n in range(2, 60):
        assert abs(win.value_at(n + 1)) < abs(win.value_at(n))


def test_min_phase_tail_is_numerically_negligible():
    win = min_phase_impulse(50)
    assert abs(float(win.value_at(50))) < 1e-8


# ---------------------------------------------------------
# Frequency responses
# ---------------------------------------------------------
def test_grid_covers_zero_to_pi():
    grid = freq_response(fibonacci_system(), 128)
    assert grid.points == 128
    assert grid.omegas[0] == 0.0
    assert grid.omegas[-1] == pytest.approx(math.pi)
    assert grid.note == "formal unit-circle evaluation"


def test_grid_compares_by_identity_and_is_read_only():
    grid, again = (freq_response(fibonacci_system(), 8) for _ in range(2))
    assert grid == grid and grid != again and hash(grid) != hash(again)
    with pytest.raises(AttributeError):
        grid.note = "changed"


def test_magnitude_law_holds_on_the_grid():
    for points in (512, 513):
        grid = freq_response(fibonacci_system(), points)
        residual = grid.magnitude**2 * (1 + 4 * np.sin(grid.omegas) ** 2) - 1
        assert np.max(np.abs(residual)) <= 1e-12
        assert np.max(np.abs(grid.magnitude - fibonacci_magnitude_law(grid.omegas))) <= 1e-12


def test_minimum_sits_at_half_pi_on_an_odd_grid():
    grid = freq_response(fibonacci_system(), 513)
    idx = int(np.argmin(grid.magnitude))
    assert grid.omegas[idx] == pytest.approx(math.pi / 2, abs=1e-15)
    assert abs(grid.magnitude[idx] - 1 / math.sqrt(5)) <= 1e-12


def test_even_grid_straddles_the_minimum():
    """A 512-point [0, pi] grid has no sample at pi/2; the observed minimum
    sits measurably above 1/sqrt(5)."""
    grid = freq_response(fibonacci_system(), 512)
    observed = float(np.min(grid.magnitude))
    assert 1e-7 < observed - 1 / math.sqrt(5) < 1e-5


def test_endpoint_magnitudes_and_phase():
    grid = freq_response(fibonacci_system(), 513)
    assert grid.magnitude[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(grid.phase[0]) == pytest.approx(math.pi, abs=1e-12)
    assert grid.magnitude[-1] == pytest.approx(1.0, abs=1e-12)


def test_singular_grid_points_are_marked():
    grid = freq_response(accumulator_system(), 64)
    assert np.isinf(grid.magnitude[0])
    assert np.isnan(grid.phase[0])
    assert np.isfinite(grid.magnitude[1:]).all()


@pytest.mark.parametrize("den, points, index", [
    ([1, 1], 3, 2), ([1, 1], 513, 512), ([1, 0, 1], 5, 2), ([1, 0, 1], 513, 256),
])
def test_poles_at_pi_and_half_pi_are_marked(den, points, index):
    grid = freq_response(RationalSystem([1], den), points)
    assert np.isinf(grid.magnitude[index]) and np.isnan(grid.phase[index])
    assert np.isfinite(np.delete(grid.magnitude, index)).all()


def test_reciprocal_magnitude_is_identical():
    cmp = compare_magnitudes(fibonacci_system(), reciprocal_system(fibonacci_system()))
    assert cmp.within(1e-12)
    assert cmp.ratio_min == pytest.approx(1.0, abs=1e-12)
    assert cmp.ratio_max == pytest.approx(1.0, abs=1e-12)


@st.composite
def flippable_systems(draw):
    """A system over Q or one Q(sqrt(d)) whose numerator degree may exceed its denominator's."""
    values = small_values(draw(st.sampled_from([None, *FIELDS])))
    num = draw(st.lists(values, max_size=6))
    den = [draw(values.filter(bool)), *draw(st.lists(values, max_size=4))]
    return RationalSystem(num, den)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(flippable_systems())
@example(RationalSystem([0, 0, 1], [1, -1]))
@example(RationalSystem([0, 0, 1], [1, -1, -1]))
@example(RationalSystem([], [1, -1]))
@example(min_phase_system())
def test_reciprocal_exists_iff_the_numerator_degree_fits(sys_):
    if sys_.numerator.degree > sys_.denominator.degree:
        with pytest.raises(MalformedSystemError):
            reciprocal_system(sys_)
        return
    flipped = reciprocal_system(sys_)
    assert flipped.denominator.coeffs[0] == 1
    assert flipped.numerator.is_zero or flipped.numerator.coeffs[0] > 0
    poles = sys_.poles()
    if all(p.exact for p in poles):
        want = sorted((p.value.inv(), p.multiplicity) for p in poles)
        assert sorted((p.value, p.multiplicity) for p in flipped.poles()) == want
    # |H(1/z)| = |H(z)| on the unit circle, away from poles on it.
    ga, gb = freq_response(sys_), freq_response(flipped)
    ok = np.isfinite(ga.magnitude) & np.isfinite(gb.magnitude) & (ga.magnitude < 1e6)
    assert gb.magnitude[ok] == pytest.approx(ga.magnitude[ok], rel=1e-9, abs=1e-12)


@pytest.mark.skipif(mpmath is None, reason="needs mpmath as the oracle")
@settings(derandomize=True, deadline=None, max_examples=100)
@given(flippable_systems())
@example(fibonacci_system())
@example(RationalSystem([1, 2], [1, 1]))
def test_grid_magnitudes_are_within_a_horner_rounding_bound(sys_):
    """Each finite magnitude is within a rounding bound of a 50-digit H at the same float w.

    Both sides evaluate the same float coefficients.  With u = 2^-53 and K the
    longer coefficient count, Horner's K complex products and sums in the
    float z err by at most about 4 K u sum|c_k|, and z (cos and sin each
    within an ulp of e^-jw) adds about 3 K u sum|c_k|.  N/D then errs by
    (err_N + |H| err_D)/|D| to first order, and the division and abs add a
    few u |H| <= few u sum|n_k|/|D|; 8 K u (sum|n_k| + |H| sum|d_k|)/|D|
    covers the sum.
    """
    num, den = sys_.numerator.float_coeffs(), sys_.denominator.float_coeffs()
    scale = 8 * max(len(num), len(den)) * 2.0**-53
    grid = freq_response(sys_, 33)
    with mpmath.workdps(50):
        for w, m in zip(grid.omegas, grid.magnitude):
            z = mpmath.expj(-mpmath.mpf(float(w)))
            n, d = mpmath.polyval(num[::-1], z), mpmath.polyval(den[::-1], z)
            if not math.isfinite(m) or d == 0:
                continue
            h = abs(n / d)
            bound = scale * (sum(map(abs, num)) + h * sum(map(abs, den))) / abs(d)
            assert abs(m - h) <= bound, (float(w), m, float(h), float(bound))


@pytest.mark.parametrize("den, points", [
    ("1,-1,-1", 257), ("1,1", 3), ("1,0,1", 5), ("1,-1/2,1/3,-1/5", 64),
])
def test_cli_grid_is_the_library_grid(capsys, den, points):
    """`freqz` prints, to 17 digits, the values `freq_response` returns: one kernel."""
    assert main(["freqz", "--num", "1,2", "--den", den, "--points", str(points)]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    printed = np.array([[float(v) for v in line.split(",")] for line in lines]).T
    grid = freq_response(RationalSystem([1, 2], [Fraction(c) for c in den.split(",")]), points)
    np.testing.assert_array_equal(printed, [grid.omegas, grid.magnitude, grid.phase])


def test_min_phase_magnitude_ratio_span():
    """|H_min|/|H| spans [phi^-3, phi^3] across the grid."""
    cmp = compare_magnitudes(min_phase_system(), fibonacci_system(), points=513)
    phi = float(PHI)
    assert cmp.ratio_min == pytest.approx(phi**-3, rel=1e-9)
    assert cmp.ratio_max == pytest.approx(phi**3, rel=1e-9)


def test_cascade_magnitude_is_the_product():
    doubled = cascade(fibonacci_system(), fibonacci_system())
    base = freq_response(fibonacci_system(), 256)
    combo = freq_response(doubled, 256)
    assert np.max(np.abs(combo.magnitude - base.magnitude**2)) <= 1e-12


def test_cascade_magnitude_with_singular_factor():
    combined = cascade(fibonacci_system(), accumulator_system())
    base = freq_response(fibonacci_system(), 128)
    acc = freq_response(accumulator_system(), 128)
    combo = freq_response(combined, 128)
    assert np.isinf(combo.magnitude[0])
    finite = np.isfinite(combo.magnitude)
    assert np.max(
        np.abs(combo.magnitude[finite] - base.magnitude[finite] * acc.magnitude[finite])
    ) <= 1e-12


def test_band_features():
    features = fibonacci_band_features()
    assert features.minimum_omega == pytest.approx(math.pi / 2)
    assert features.minimum_magnitude == pytest.approx(1 / math.sqrt(5))
    lo, hi = features.half_power_omegas
    assert lo == pytest.approx(math.pi / 6)
    assert hi == pytest.approx(5 * math.pi / 6)
    # Both half-power points satisfy |H|^2 = 1/2 under the law.
    assert fibonacci_magnitude_law([lo, hi]) == pytest.approx(
        [1 / math.sqrt(2)] * 2, abs=1e-15
    )


def test_law_on_arbitrary_frequencies():
    rng = np.random.default_rng(37)
    omegas = rng.uniform(0, math.pi, size=50)
    expect = 1 / np.sqrt(1 + 4 * np.sin(omegas) ** 2)
    assert fibonacci_magnitude_law(omegas) == pytest.approx(expect, abs=1e-15)


def test_freq_response_rejects_tiny_grids():
    with pytest.raises(ValueError):
        freq_response(fibonacci_system(), 1)
