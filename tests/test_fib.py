# tests/test_fib.py
from fractions import Fraction

import pytest

from fiblti.fib import (
    FibValue,
    appendix_forms_equal,
    check_identities,
    fib_binet_exact,
    fib_extended,
    fib_fast_doubling,
    fib_recursive,
    ratio_convergence,
)
from fiblti.qfield import GOLDEN_RATIO, QuadRational


# Independent oracle: the bare two-term recursion, nothing shared with the
# engines under test.
def oracle(count):
    out = [0, 1]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


FIRST_ELEVEN = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


# ---------------------------------------------------------
# The three engines
# ---------------------------------------------------------
def test_recursive_reproduces_the_opening_listing():
    assert [v.value for v in fib_recursive(0, 11)] == FIRST_ELEVEN


def test_recursive_windows():
    values = fib_recursive(5, 4)
    assert values == [FibValue(5, 5), FibValue(6, 8), FibValue(7, 13), FibValue(8, 21)]
    assert [v.value for v in fib_recursive(0, 300)] == oracle(300)


def test_recursive_rejects_bad_arguments():
    with pytest.raises(ValueError):
        fib_recursive(-1, 3)
    with pytest.raises(ValueError):
        fib_recursive(0, 0)


def test_binet_exact_matches_oracle():
    ref = oracle(301)
    assert [fib_binet_exact(n) for n in range(301)] == ref
    assert [fib_binet_exact(n) for n in range(11)] == FIRST_ELEVEN


def test_fast_doubling_matches_oracle():
    ref = oracle(301)
    assert [fib_fast_doubling(n) for n in range(301)] == ref
    assert [fib_fast_doubling(n) for n in range(11)] == FIRST_ELEVEN


def test_fast_doubling_large_indices_spot_checked_against_recursion():
    ref = oracle(2001)
    for n in (997, 1024, 1729, 2000):
        assert fib_fast_doubling(n) == ref[n]


def test_large_value_digit_counts():
    # f(1730) is the impulse-response element at index 1729; its digit count
    # differs from f(1729)'s by one, a reliable off-by-one tripwire.
    assert len(str(fib_fast_doubling(1729))) == 361
    assert len(str(fib_fast_doubling(1730))) == 362
    assert len(str(fib_fast_doubling(1789))) == 374
    assert len(str(fib_fast_doubling(1790))) == 374


def test_fast_doubling_rejects_negative_index():
    with pytest.raises(ValueError):
        fib_fast_doubling(-1)


# ---------------------------------------------------------
# Negative indices
# ---------------------------------------------------------
def test_extended_listing_for_negative_indices():
    assert [fib_extended(-n) for n in range(1, 11)] == [
        1, -1, 2, -3, 5, -8, 13, -21, 34, -55,
    ]


def test_extended_sign_law():
    ref = oracle(201)
    for n in range(1, 201):
        assert fib_extended(-n) == (-1) ** (n + 1) * ref[n]
    assert fib_extended(0) == 0
    for n in range(0, 201):
        assert fib_extended(n) == ref[n]


def test_binet_exact_covers_negative_indices():
    for n in range(-50, 51):
        assert fib_binet_exact(n) == fib_extended(n)


def test_extended_recursion_holds_everywhere():
    for n in range(-30, 31):
        assert fib_extended(n) == fib_extended(n - 1) + fib_extended(n - 2)


# ---------------------------------------------------------
# Golden-ratio powers
# ---------------------------------------------------------
def test_phi_power_decomposes_over_fibonacci_pairs():
    """phi^n = f(n) phi + f(n-1) exactly, for positive and negative n."""
    for n in range(-100, 101):
        expect = fib_extended(n) * GOLDEN_RATIO + fib_extended(n - 1)
        assert GOLDEN_RATIO**n == expect


# ---------------------------------------------------------
# Identity battery
# ---------------------------------------------------------
def test_identity_battery_passes_at_five_hundred():
    report = check_identities(500)
    assert report.n_max == 500
    names = [c.name for c in report.checks]
    assert names == [
        "coprime_consecutive",
        "perfect_square_form",
        "golden_rounding",
        "index_doubling",
    ]
    for c in report.checks:
        assert c.checked == 500
        assert c.passed == 500
        assert c.first_failure is None


def test_identity_report_as_dict():
    d = check_identities(10).as_dict()
    assert d["coprime_consecutive"] == {
        "checked": 10,
        "passed": 10,
        "first_failure": None,
    }


def test_identity_battery_rejects_bad_bound():
    with pytest.raises(ValueError):
        check_identities(0)


# ---------------------------------------------------------
# Ratio convergence
# ---------------------------------------------------------
def test_ratio_convergence_known_thresholds():
    # Float oracle: |phi - f(n+1)/f(n)| first drops below 1e-3 at n = 9
    # (34/21 vs 55/34), and below 1 immediately at n = 1.
    assert ratio_convergence(100, Fraction(1, 1000)) == 9
    assert ratio_convergence(100, Fraction(1)) == 1
    assert ratio_convergence(100, 1e-3) == 9


def test_ratio_convergence_exact_at_the_boundary():
    """The deciding inequality |phi*f(n) - f(n+1)| < tol*f(n) is exact."""
    ref = oracle(12)
    tol = Fraction(1, 1000)
    n = 9
    assert abs(GOLDEN_RATIO * ref[n] - ref[n + 1]) < tol * ref[n]
    assert not abs(GOLDEN_RATIO * ref[n - 1] - ref[n]) < tol * ref[n - 1]


def test_ratio_convergence_unreachable_tolerance():
    assert ratio_convergence(40, Fraction(1, 10**30)) is None


# ---------------------------------------------------------
# Closed-form equivalences
# ---------------------------------------------------------
def test_closed_forms_agree_with_recursion():
    report = appendix_forms_equal(50)
    assert report.n_max == 50
    assert dict(report.agreements) == {
        "pole_pair_scaled": True,
        "shifted_binet": True,
        "split_residues": True,
        "conjugate_weighted": True,
    }
    assert report.as_dict() == {
        "pole_pair_scaled": True,
        "shifted_binet": True,
        "split_residues": True,
        "conjugate_weighted": True,
    }


def test_closed_forms_evaluate_in_the_field():
    """Spot-check one form directly: f(n+1) = (phi^(n+1) - psi^(n+1))/sqrt5."""
    from fiblti.qfield import GOLDEN_RATIO_CONJUGATE, SQRT5

    ref = oracle(30)
    for n in range(0, 29):
        v = (GOLDEN_RATIO ** (n + 1) - GOLDEN_RATIO_CONJUGATE ** (n + 1)) / SQRT5
        assert v == ref[n + 1]
        assert v.is_integer


def test_fib_value_record_semantics():
    value = fib_recursive(10, 1)[0]
    assert repr(value) == "FibValue(index=10, value=55)"
    assert value == FibValue(10, 55) and hash(value) == hash(FibValue(10, 55))
    assert value != FibValue(10, 56)
    with pytest.raises(AttributeError):
        value.value = 56
    report = check_identities(5)
    assert report == check_identities(5) and hash(report) == hash(check_identities(5))
    with pytest.raises(AttributeError):
        report.n_max = 6
