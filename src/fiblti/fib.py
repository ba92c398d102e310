"""Fibonacci engines and machine-checkable identities.

Three independent engines produce the sequence: the additive recursion, the
exact closed form in Q(sqrt(5)) and an index-doubling scheme.  Alongside them
live exact checkers for the classic facts the rest of the package leans on
(coprimality of neighbours, the 5 f^2 +- 4 square test, rounding against the
golden ratio, index doubling) and for four equivalent closed forms of the
shifted sequence f(n+1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .qfield import GOLDEN_RATIO, GOLDEN_RATIO_CONJUGATE, SQRT5, QuadRational, int_sqrt_exact

__all__ = [
    "FibValue",
    "fib_recursive",
    "fib_binet_exact",
    "fib_fast_doubling",
    "fib_extended",
    "IdentityCheck",
    "IdentityReport",
    "check_identities",
    "ratio_convergence",
    "ClosedFormReport",
    "appendix_forms_equal",
]


class FibValue(NamedTuple):
    """One sequence sample: f(index) = value."""

    index: int
    value: int


def fib_recursive(n: int, count: int) -> list[FibValue]:
    """`count` consecutive values f(n), f(n+1), ... by the additive recursion.

    Seeds f(0) = 0, f(1) = 1; requires n >= 0 and count >= 1.
    """
    if n < 0:
        raise ValueError(f"start index must be >= 0, got {n}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    out = []
    for i in range(count):
        out.append(FibValue(n + i, a))
        a, b = b, a + b
    return out


def fib_binet_exact(n: int) -> int:
    """f(n) from the closed form (phi^n - psi^n)/sqrt(5), exactly.

    All arithmetic stays in Q(sqrt(5)); any integer n is accepted, so this is
    also the natural engine for negative indices.  psi^n is the field
    conjugate of phi^n = a + b*sqrt(5), so the difference is 2b*sqrt(5) and
    the quotient 2b: one field power gives the value.
    """
    value = 2 * (GOLDEN_RATIO ** n).b
    assert value.denominator == 1, "field arithmetic lost exactness"
    return int(value)


def fib_fast_doubling(n: int) -> int:
    """f(n) by index doubling on the pair (f(m-1), f(m)); requires n >= 0.

    Uses f(2m-1) = f(m-1)^2 + f(m)^2 and f(2m) = (2 f(m-1) + f(m)) f(m),
    consuming the bits of n from the top.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    prev, cur = 1, 0  # f(-1), f(0)
    for bit_pos in range(n.bit_length() - 1, -1, -1):
        odd = prev * prev + cur * cur        # f(2m-1)
        even = (2 * prev + cur) * cur        # f(2m)
        if (n >> bit_pos) & 1:
            prev, cur = even, odd + even
        else:
            prev, cur = odd, even
    return cur


def fib_extended(n: int) -> int:
    """f(n) for any integer index via f(-n) = (-1)^(n+1) f(n)."""
    if n >= 0:
        return fib_fast_doubling(n)
    m = -n
    value = fib_fast_doubling(m)
    return value if m % 2 else -value


class IdentityCheck(NamedTuple):
    """Result of sweeping one identity family over 1..n_max."""

    name: str
    checked: int
    passed: int
    first_failure: int | None

    @property
    def all_passed(self) -> bool:
        return self.passed == self.checked


class IdentityReport(NamedTuple):
    n_max: int
    checks: tuple[IdentityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.all_passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            c.name: {
                "checked": c.checked,
                "passed": c.passed,
                "first_failure": c.first_failure,
            }
            for c in self.checks
        }


def _sweep(name: str, n_max: int, predicate) -> IdentityCheck:
    passed = 0
    first_failure = None
    for n in range(1, n_max + 1):
        if predicate(n):
            passed += 1
        elif first_failure is None:
            first_failure = n
    return IdentityCheck(name, n_max, passed, first_failure)


def check_identities(n_max: int) -> IdentityReport:
    """Exhaustively verify the four identity families for n in 1..n_max.

    * consecutive values are coprime: gcd(f(n), f(n+1)) = 1
    * 5 f(n)^2 + 4 or 5 f(n)^2 - 4 is a perfect square
    * the rounding property |f(m) * phi - f(m+1)| < 1/2 with m = n + 1,
      decided exactly in Q(sqrt(5)); the property first holds for the pair
      (f(2), f(3)) = (1, 2), so the sweep starts there
    * index doubling: f(2n-1) = f(n-1)^2 + f(n)^2 and
      f(2n) = (2 f(n-1) + f(n)) f(n)
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    fibs = [v.value for v in fib_recursive(0, 2 * n_max + 2)]
    half = Fraction(1, 2)

    def coprime(n: int) -> bool:
        return math.gcd(fibs[n], fibs[n + 1]) == 1

    def square_form(n: int) -> bool:
        sq = 5 * fibs[n] * fibs[n]
        return int_sqrt_exact(sq + 4) is not None or int_sqrt_exact(sq - 4) is not None

    def rounding(n: int) -> bool:
        return abs(GOLDEN_RATIO * fibs[n + 1] - fibs[n + 2]) < half

    def doubling(n: int) -> bool:
        a, b = fibs[n - 1], fibs[n]
        return fibs[2 * n - 1] == a * a + b * b and fibs[2 * n] == (2 * a + b) * b

    return IdentityReport(
        n_max,
        (
            _sweep("coprime_consecutive", n_max, coprime),
            _sweep("perfect_square_form", n_max, square_form),
            _sweep("golden_rounding", n_max, rounding),
            _sweep("index_doubling", n_max, doubling),
        ),
    )


def ratio_convergence(n_max: int, tol) -> int | None:
    """First index n >= 1 with |f(n+1)/f(n) - phi| < tol, or None.

    The inequality is decided exactly: tol is converted once to a Fraction
    (for floats, their exact binary value) and the test is
    |f(n+1) - f(n)*phi| < tol*f(n) in Q(sqrt(5)).
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    a, b = 1, 1  # f(1), f(2)
    for n in range(1, n_max + 1):
        if abs(GOLDEN_RATIO * a - b) < tol * a:
            return n
        a, b = b, a + b
    return None


class ClosedFormReport(NamedTuple):
    """Per-form agreement of the closed forms for f(n+1) over 0..n_max."""

    n_max: int
    agreements: tuple[tuple[str, bool], ...]

    @property
    def all_equal(self) -> bool:
        return all(ok for _, ok in self.agreements)

    def as_dict(self) -> dict:
        return dict(self.agreements)


def appendix_forms_equal(n_max: int) -> ClosedFormReport:
    """Check four closed forms of f(n+1) against the recursion for 0..n_max.

    The forms are the scaled pole pair D*(phi^(n+2) + phi~^n) with
    D = 1/(1+phi^2), the shifted closed form, the split-residue form and the
    conjugate-weighted form; all algebra is exact in Q(sqrt(5)).
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    phi = GOLDEN_RATIO
    psi = GOLDEN_RATIO_CONJUGATE
    scale = 1 / (1 + phi * phi)

    def pole_pair(n: int) -> QuadRational:
        return scale * (phi ** (n + 2) + psi ** n)

    def shifted_binet(n: int) -> QuadRational:
        return (phi ** (n + 1) - (-phi) ** (-n - 1)) / SQRT5

    def split_residues(n: int) -> QuadRational:
        return phi ** n / (1 + psi * psi) + psi ** n / (1 + phi * phi)

    def conjugate_weighted(n: int) -> QuadRational:
        return (phi ** n * (phi * phi + 1) + psi ** n * (psi * psi + 1)) / 5

    forms = (
        ("pole_pair_scaled", pole_pair),
        ("shifted_binet", shifted_binet),
        ("split_residues", split_residues),
        ("conjugate_weighted", conjugate_weighted),
    )
    fibs = [v.value for v in fib_recursive(0, n_max + 2)]
    agreements = []
    for name, form in forms:
        ok = all(form(n) == fibs[n + 1] for n in range(n_max + 1))
        agreements.append((name, ok))
    return ClosedFormReport(n_max, tuple(agreements))
