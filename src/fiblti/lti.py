"""Rational discrete-time systems in z^-1 with exact pole analysis.

Transfer functions are ratios of polynomials in z^-1 with exact coefficients
(see `qfield`).  Denominators of degree <= 2 factor exactly, either over the
rationals or over a real quadratic field; higher degrees keep exactness only
when a factored pole multiset is carried along (as `cascade` does) and
otherwise fall back to a numeric root finder.  Regions of convergence are open
annuli between pole moduli, and the inverse transform is computed per
partial-fraction term as a right- or left-sided sequence depending on which
side of the annulus the pole lies.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Union

import numpy as np

from .qfield import (
    FieldMismatchError,
    GOLDEN_RATIO,
    GOLDEN_RATIO_CONJUGATE,
    QuadRational,
    sqrt_in_field,
    square_free_decompose,
)

__all__ = [
    "MalformedSystemError",
    "InvalidRocError",
    "Polynomial",
    "poly_mul",
    "Pole",
    "Roc",
    "Classification",
    "RationalSystem",
    "SequenceWindow",
    "PartialFractionTerm",
    "PartialFractionExpansion",
    "find_poles",
    "enumerate_rocs",
    "classify",
    "partial_fractions",
    "inverse_z",
    "reciprocal_system",
    "cascade",
    "fibonacci_system",
    "accumulator_system",
    "min_phase_system",
]

Coefficient = Union[int, Fraction, QuadRational]

#: Relative residual accepted by the numeric pole fallback.
_NUMERIC_RESIDUAL_TOL = 1e-10
#: Relative distance under which numeric roots merge into one multiple pole.
_NUMERIC_CLUSTER_TOL = 1e-6
#: Relative distance under which two pole moduli count as one circle.
_MODULUS_TOL = 1e-9


class MalformedSystemError(ValueError):
    """The system is not a valid ratio of polynomials in z^-1."""


class InvalidRocError(ValueError):
    """The requested region of convergence is inconsistent with the poles."""


_ZERO = QuadRational(0)
_ONE = QuadRational(1)


def _lift(items: Iterable) -> list[QuadRational]:
    """Lift int/Fraction values to field elements.

    A rational value belongs to every field; irrational values from two
    different fields raise FieldMismatchError.
    """
    rad = None
    lifted = []
    for v in items:
        if not isinstance(v, QuadRational):
            v = QuadRational(v)
        elif not v.is_rational:
            if rad is None:
                rad = v.d
            elif rad != v.d:
                raise FieldMismatchError(f"values mix sqrt({rad}) and sqrt({v.d})")
        lifted.append(v)
    return lifted


class Polynomial:
    """A polynomial in z^-1: ``coeffs[k]`` multiplies z^-k.  Immutable, exact.

    Trailing zero coefficients are trimmed; the zero polynomial has an empty
    coefficient tuple and degree -1.  Plain int/Fraction coefficients become
    rational field elements, which belong to every field; the irrational
    coefficients must all come from one field Q(sqrt(d)).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Coefficient] = ()) -> None:
        lifted = _lift(coeffs)
        while lifted and not lifted[-1]:
            lifted.pop()
        self._coeffs = tuple(lifted)

    @property
    def coeffs(self) -> tuple[QuadRational, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def is_rational(self) -> bool:
        return all(c.is_rational for c in self._coeffs)

    def coefficient(self, k: int) -> QuadRational:
        """The coefficient of z^-k (zero outside the stored range)."""
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return _ZERO

    def lead_delay(self) -> int | None:
        """Index of the first nonzero coefficient, or None for zero."""
        for k, c in enumerate(self._coeffs):
            if c:
                return k
        return None

    def unshifted(self, k: int) -> "Polynomial":
        """Divide by z^-k; the dropped coefficients must all be zero."""
        if any(self._coeffs[:k]):
            raise ValueError(f"polynomial has no factor z^-{k}")
        return Polynomial(self._coeffs[k:])

    def shifted(self, k: int) -> "Polynomial":
        """Multiply by z^-k."""
        if k < 0:
            raise ValueError(f"shift must be >= 0, got {k}")
        return Polynomial((_ZERO,) * k + self._coeffs)

    def evaluate(self, w: Coefficient) -> QuadRational:
        """Exact value at z^-1 = w, by Horner's scheme."""
        acc = _ZERO
        for c in reversed(self._coeffs):
            acc = acc * w + c
        return acc

    def float_coeffs(self) -> list[float]:
        return [float(c) for c in self._coeffs]

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return Polynomial(
            [self.coefficient(k) + other.coefficient(k) for k in range(n)]
        )

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return Polynomial(
            [self.coefficient(k) - other.coefficient(k) for k in range(n)]
        )

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self._coeffs])

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction, QuadRational)):
            return Polynomial([c * other for c in self._coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [_ZERO] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, ci in enumerate(self._coeffs):
            if not ci:
                continue
            for j, cj in enumerate(other._coeffs):
                out[i + j] = out[i + j] + ci * cj
        return Polynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Polynomial":
        if isinstance(scalar, (int, Fraction)):
            scalar = QuadRational(scalar)
        if not isinstance(scalar, QuadRational):
            return NotImplemented
        return self * scalar.inv()

    def __divmod__(self, other) -> "tuple[Polynomial, Polynomial]":
        """Long division: self = quotient*other + remainder, deg r < deg other."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        dn = other.degree
        if self.degree < dn:
            return Polynomial(), self
        rem = list(self._coeffs)
        lead = other._coeffs[dn]
        quot = [_ZERO] * (len(rem) - dn)
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i] / lead
            quot[i - dn] = c
            if c:
                for j in range(dn + 1):
                    rem[i - dn + j] = rem[i - dn + j] - c * other._coeffs[j]
        return Polynomial(quot), Polynomial(rem[:dn])

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return len(self._coeffs) == len(other._coeffs) and all(
                a == b for a, b in zip(self._coeffs, other._coeffs)
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        out = ""
        for k, c in enumerate(self._coeffs):
            if not c:
                continue
            if c.is_rational and c.a < 0:
                joiner, c = (" - ", -c) if out else ("-", -c)
            else:
                joiner = " + " if out else ""
            text = str(c) if c.is_rational else f"({c})"
            out += joiner + (text if k == 0 else f"{text}*z^-{k}")
        return out

    def __repr__(self) -> str:
        return f"Polynomial([{', '.join(str(c) for c in self._coeffs)}])"


def _as_poly(p) -> Polynomial:
    return p if isinstance(p, Polynomial) else Polynomial(p)


def poly_mul(p, q) -> Polynomial:
    """Coefficient convolution of two polynomials in z^-1."""
    return _as_poly(p) * _as_poly(q)


@dataclass(frozen=True)
class Pole:
    """A denominator root in the z plane with its multiplicity.

    `value` is an exact field element on the exact path, or a Python complex
    from the numeric fallback; ``exact`` says which.
    """

    value: QuadRational | complex
    multiplicity: int = 1

    @property
    def exact(self) -> bool:
        return not isinstance(self.value, (float, complex))

    def modulus(self) -> QuadRational | float:
        return abs(self.value)

    def as_complex(self) -> complex:
        return complex(self.value)


def _pole_sort_key(p: Pole):
    z = p.as_complex()
    return (abs(z), z.real, z.imag)


@dataclass(frozen=True)
class Roc:
    """An open annulus r_in < |z| < r_out; ``r_out is None`` means unbounded.

    Radii are exact field elements on the exact path, floats otherwise.  The
    region is causal iff it reaches infinity and stable iff it holds the unit
    circle; both are read off the radii.
    """

    r_in: QuadRational | float
    r_out: QuadRational | float | None

    @property
    def causal(self) -> bool:
        return self.r_out is None

    @property
    def stable(self) -> bool:
        return _cmp_modulus(self.r_in, 1) < 0 and (
            self.r_out is None or _cmp_modulus(1, self.r_out) < 0
        )


class Classification(NamedTuple):
    causal: bool
    stable: bool


def classify(roc: Roc, poles: "Iterable[Pole] | None" = None) -> Classification:
    """Causality and stability of one region of convergence.

    Causal iff the region extends to infinity; stable iff it contains the
    unit circle.  When `poles` is given, the region is checked for
    consistency by the side test `inverse_z` uses, raising InvalidRocError.
    """
    if poles is not None:
        for p in poles:
            _right_sided(p.modulus(), roc)
    return Classification(roc.causal, roc.stable)


def _cmp_modulus(a, b) -> int:
    """-1, 0 or 1 as modulus a lies below, on or above modulus b.

    Exact for field elements; once a float is involved, moduli within a
    relative `_MODULUS_TOL` are one circle.
    """
    if isinstance(a, float) or isinstance(b, float):
        a, b = float(a), float(b)
        if abs(a - b) <= _MODULUS_TOL * max(a, b):
            return 0
    return (a > b) - (a < b)


def _right_sided(mod, roc: Roc) -> bool:
    """True for a pole on or inside the inner circle of `roc`, False for one
    on or outside the outer circle; a pole between them raises InvalidRocError.
    """
    if roc.r_out is not None and _cmp_modulus(roc.r_out, mod) <= 0:
        return False
    if _cmp_modulus(mod, roc.r_in) <= 0:
        return True
    raise InvalidRocError(
        f"pole of modulus {mod} lies inside the annulus; no sequence converges there"
    )


class SequenceWindow:
    """Sequence values on a contiguous index window [n0, n1].

    The one window type for inputs and responses.  Values are exact field
    elements; only the numeric pole fallback produces float windows (complex
    values keep their real part), reported by ``exact`` being False.
    """

    __slots__ = ("_n0", "_values", "_exact")

    def __init__(self, n0: int, values: Iterable) -> None:
        items = list(values)
        self._exact = not any(isinstance(v, (float, complex)) for v in items)
        if self._exact:
            self._values = tuple(_lift(items))
        else:
            self._values = tuple(
                float(v.real if isinstance(v, complex) else v) for v in items
            )
        self._n0 = int(n0)

    @property
    def n0(self) -> int:
        return self._n0

    @property
    def n1(self) -> int:
        return self._n0 + len(self._values) - 1

    @property
    def values(self) -> tuple:
        return self._values

    @property
    def exact(self) -> bool:
        return self._exact

    def value_at(self, n: int):
        """The value at index n; zero outside the window."""
        i = n - self._n0
        if 0 <= i < len(self._values):
            return self._values[i]
        return _ZERO if self._exact else 0.0

    def items(self):
        for i, v in enumerate(self._values):
            yield self._n0 + i, v

    def shifted(self, k: int) -> "SequenceWindow":
        """The sequence delayed by k samples."""
        return SequenceWindow(self._n0 + k, self._values)

    def scaled(self, c) -> "SequenceWindow":
        """Every value multiplied by c; an exact window scales exactly."""
        if self._exact and not isinstance(c, QuadRational):
            c = Fraction(c)
        return SequenceWindow(self._n0, [c * v for v in self._values])

    def __add__(self, other) -> "SequenceWindow":
        if not isinstance(other, SequenceWindow):
            return NotImplemented
        n0 = min(self._n0, other._n0)
        n1 = max(self.n1, other.n1)
        return SequenceWindow(
            n0, [self.value_at(n) + other.value_at(n) for n in range(n0, n1 + 1)]
        )

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    def to_ints(self) -> list[int]:
        """Values as plain integers; raises ValueError if any is not one."""
        if not self.exact:
            raise ValueError("window holds inexact values")
        return [int(v) for v in self._values]

    def to_floats(self) -> list[float]:
        return [float(v) for v in self._values]

    def __eq__(self, other) -> bool:
        if isinstance(other, SequenceWindow):
            return (
                self._n0 == other._n0
                and len(self._values) == len(other._values)
                and all(a == b for a, b in zip(self._values, other._values))
            )
        return NotImplemented

    def __repr__(self) -> str:
        vals = ", ".join(str(v) for v in self._values)
        return f"SequenceWindow(n0={self._n0}, values=[{vals}])"


class RationalSystem:
    """A rational transfer function N(z^-1)/D(z^-1) with exact coefficients.

    The denominator is normalized so its constant term is 1.  A factored pole
    multiset is attached when an exact factorization is known (degree <= 2
    denominators factor automatically; `cascade` merges factorizations); its
    expansion is verified against the denominator at construction.
    """

    __slots__ = ("_num", "_den", "_poles")

    def __init__(self, numerator, denominator, poles: "Iterable[Pole] | None" = None) -> None:
        num = _as_poly(numerator)
        den = _as_poly(denominator)
        if den.is_zero:
            raise MalformedSystemError("denominator is the zero polynomial")
        lead = den.coefficient(0)
        if not lead:
            raise MalformedSystemError("denominator constant term must be nonzero")
        if lead != 1:
            num = num / lead
            den = den / lead
        self._num = num
        self._den = den
        if poles is not None:
            poles = tuple(sorted(poles, key=_pole_sort_key))
            if not all(p.exact for p in poles):
                raise ValueError("a stored pole multiset must be exact")
            if _expand_factors(poles) != den:
                raise MalformedSystemError(
                    "factored pole multiset does not expand to the denominator"
                )
        elif den.degree == 0:
            poles = ()
        elif den.degree <= 2:
            found = find_poles(den)
            poles = tuple(found) if all(p.exact for p in found) else None
        self._poles = poles

    @property
    def numerator(self) -> Polynomial:
        return self._num

    @property
    def denominator(self) -> Polynomial:
        return self._den

    @property
    def pole_factors(self) -> "tuple[Pole, ...] | None":
        """The stored exact pole multiset, or None if not known."""
        return self._poles

    @property
    def order(self) -> int:
        return self._den.degree

    def poles(self) -> tuple[Pole, ...]:
        """Exact poles when known, else the numeric fallback's."""
        if self._poles is not None:
            return self._poles
        return tuple(find_poles(self._den))

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalSystem):
            return self._num == other._num and self._den == other._den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __mul__(self, other) -> "RationalSystem":
        if not isinstance(other, RationalSystem):
            return NotImplemented
        return cascade(self, other)

    def __str__(self) -> str:
        return f"({self._num}) / ({self._den})"

    def __repr__(self) -> str:
        return f"RationalSystem(num=[{self._num}], den=[{self._den}])"


def _expand_factors(poles: Iterable[Pole]) -> Polynomial:
    factors = [(p.value, p.multiplicity) for p in poles]
    return Polynomial(_term_basis(None, 0, factors, _ONE))


def find_poles(den) -> list[Pole]:
    """Poles (z-plane roots of the denominator) with multiplicities.

    Degree 1 factors exactly over the rationals; degree 2 factors exactly
    over the rationals or a real quadratic field when the discriminant allows
    it; everything else (including complex pairs) uses the numeric fallback
    and is flagged inexact.  Poles are sorted by modulus.
    """
    den = _as_poly(den)
    if den.is_zero:
        raise MalformedSystemError("denominator is the zero polynomial")
    deg = den.degree
    if deg < 1:
        return []
    c = den.coeffs
    if deg == 1:
        # c0 + c1 w = 0 at w = 1/z, so z = -c1/c0.
        return [Pole(-(c[1] / c[0]))]
    if deg == 2:
        poles = _quadratic_poles(c)
        if poles is not None:
            return poles
    return _numeric_poles(den)


def _quadratic_poles(c) -> "list[Pole] | None":
    # Roots of c0 z^2 + c1 z + c2 (the denominator read in powers of z).
    c0, c1, c2 = c
    disc = c1 * c1 - 4 * c0 * c2
    if not disc:
        return [Pole(-(c1 / (2 * c0)), 2)]
    if disc.is_rational:
        root = _rational_sqrt_any_field(disc.as_fraction())
    else:
        root = sqrt_in_field(disc)
    if root is None:
        return None
    try:
        p_plus = (-c1 + root) / (2 * c0)
        p_minus = (-c1 - root) / (2 * c0)
    except FieldMismatchError:
        # Discriminant root lives in a different field than the coefficients.
        return None
    return sorted([Pole(p_plus), Pole(p_minus)], key=_pole_sort_key)


def _rational_sqrt_any_field(x: Fraction) -> QuadRational | None:
    """sqrt(x) for x > 0 as an exact value, choosing the field it needs."""
    if x < 0:
        return None
    pq = x.numerator * x.denominator
    s, k = square_free_decompose(pq)
    if k == 1:
        return QuadRational(Fraction(s, x.denominator))
    return QuadRational(0, Fraction(s, x.denominator), k)


def _numeric_poles(den: Polynomial) -> list[Pole]:
    coeffs = den.float_coeffs()  # z-polynomial, highest power of z first
    roots = [_polish_root(coeffs, complex(z)) for z in np.roots(coeffs)]
    clusters: list[list[complex]] = []
    for z in sorted(roots, key=lambda z: (abs(z), z.real, z.imag)):
        for cluster in clusters:
            ref = cluster[0]
            if abs(z - ref) <= _NUMERIC_CLUSTER_TOL * abs(ref):
                cluster.append(z)
                break
        else:
            clusters.append([z])
    scale = max(abs(cf) for cf in coeffs)
    poles = []
    for cluster in clusters:
        z = sum(cluster) / len(cluster)
        if abs(z.imag) <= 1e-12 * abs(z.real):
            z = complex(z.real, 0.0)
        residual = abs(_horner(coeffs, z)) / (scale * max(1.0, abs(z)) ** den.degree)
        if residual > _NUMERIC_RESIDUAL_TOL:
            raise ArithmeticError(
                f"numeric root finder residual {residual:.3e} exceeds tolerance"
            )
        poles.append(Pole(z, len(cluster)))
    return sorted(poles, key=_pole_sort_key)


def _horner(coeffs, z: complex) -> complex:
    acc = 0j
    for cf in coeffs:
        acc = acc * z + cf
    return acc


def _polish_root(coeffs, z: complex) -> complex:
    for _ in range(30):
        p = 0j
        dp = 0j
        for cf in coeffs:
            dp = dp * z + p
            p = p * z + cf
        if abs(dp) == 0.0:
            break
        step = p / dp
        z = z - step
        if abs(step) <= 1e-15 * max(1.0, abs(z)):
            break
    return z


def enumerate_rocs(poles: Iterable[Pole]) -> list[Roc]:
    """All open annuli bounded by pole moduli, innermost disc first.

    k distinct moduli give k+1 regions, each with its derived causal and
    stable tags.
    """
    poles = list(poles)
    moduli: list = []
    for p in poles:
        m = p.modulus()
        if not any(_cmp_modulus(m, seen) == 0 for seen in moduli):
            moduli.append(m)
    moduli.sort(key=float)
    zero = _ZERO if all(p.exact for p in poles) else 0.0
    bounds = [zero, *moduli, None]
    return [Roc(r_in, r_out) for r_in, r_out in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class PartialFractionTerm:
    """One term coefficient/(1 - pole*z^-1)^order of an expansion."""

    pole: Pole
    order: int
    coefficient: QuadRational | complex


@dataclass(frozen=True)
class PartialFractionExpansion:
    """Terms plus the finite polynomial part from long division."""

    terms: tuple[PartialFractionTerm, ...]
    poly_part: Polynomial

    @property
    def exact(self) -> bool:
        return all(t.pole.exact for t in self.terms)

    def reconstruct(self) -> RationalSystem:
        """Recombine the expansion over the common denominator (exact only)."""
        if not self.exact:
            raise ValueError("cannot reconstruct exactly from numeric terms")
        poles = _collect_poles(self.terms)
        den = _expand_factors(poles)
        num = self.poly_part * den
        factors = [(p.value, p.multiplicity) for p in poles]
        for t in self.terms:
            basis = Polynomial(_term_basis(t.pole.value, t.order, factors, _ONE))
            num = num + basis * t.coefficient
        return RationalSystem(num, den, poles)


def _collect_poles(terms: Iterable[PartialFractionTerm]) -> tuple[Pole, ...]:
    seen: dict = {}
    for t in terms:
        seen[t.pole.value] = t.pole
    return tuple(sorted(seen.values(), key=_pole_sort_key))


def _term_basis(value, order: int, factors, one) -> list:
    """Coefficients in z^-1 of all pole factors except (1 - value z^-1)^order.

    `factors` holds (pole value, multiplicity) pairs and `one` is the unit,
    both of one scalar kind: exact field elements or complex floats.
    Multiplying a term of that pole and order by the common denominator
    leaves exactly this polynomial, which is what the coefficient-matching
    solve uses.
    """
    zero = one - one
    prod = [one]
    for q, mult in factors:
        if q == value:
            mult -= order
        for _ in range(mult):
            prod = [
                (prod[i] if i < len(prod) else zero) - q * (prod[i - 1] if i else zero)
                for i in range(len(prod) + 1)
            ]
    return prod


def partial_fractions(sys: RationalSystem) -> PartialFractionExpansion:
    """Expand N/D into first- and higher-order pole terms plus a finite part.

    Long division first brings the numerator degree below the denominator's;
    the residues then solve an exact linear system by coefficient matching
    (complex floats on the numeric-pole path).
    """
    poles = sys.poles()
    quot, rem = divmod(sys.numerator, sys.denominator)
    total = sum(p.multiplicity for p in poles)
    assert total == sys.denominator.degree, "pole multiplicities disagree with degree"
    exact = all(p.exact for p in poles)
    scalar = _scalar_map(exact)
    one = scalar(_ONE)
    zero = one - one
    factors = [(scalar(p.value), p.multiplicity) for p in poles]
    columns = [(p, j) for p in poles for j in range(1, p.multiplicity + 1)]
    basis = [_term_basis(scalar(p.value), j, factors, one) for p, j in columns]
    mat = [[b[i] if i < len(b) else zero for b in basis] for i in range(total)]
    rhs = [scalar(rem.coefficient(i)) for i in range(total)]
    sol = _solve_linear(mat, rhs, exact)

    terms = tuple(
        PartialFractionTerm(p, j, coeff) for (p, j), coeff in zip(columns, sol)
    )
    return PartialFractionExpansion(terms, quot)


def _scalar_map(exact: bool):
    """The scalars of one arithmetic path: field elements as they are, or complex."""
    return (lambda v: v) if exact else complex


def _solve_linear(mat, rhs, exact: bool):
    """Gaussian elimination; exact pivots pick the first nonzero entry."""
    n = len(rhs)
    mat = [row[:] for row in mat]
    rhs = rhs[:]
    for col in range(n):
        if exact:
            piv = next((r for r in range(col, n) if mat[r][col]), None)
        else:
            piv = max(range(col, n), key=lambda r: abs(mat[r][col]), default=None)
            if piv is not None and abs(mat[piv][col]) == 0.0:
                piv = None
        if piv is None:
            raise ArithmeticError(
                "singular residue system; pole multiplicities are inconsistent"
            )
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
        for r in range(col + 1, n):
            if mat[r][col]:
                factor = mat[r][col] / mat[col][col]
                rhs[r] = rhs[r] - factor * rhs[col]
                for k in range(col, n):
                    mat[r][k] = mat[r][k] - factor * mat[col][k]
    sol = [None] * n
    for i in range(n - 1, -1, -1):
        acc = rhs[i]
        for j in range(i + 1, n):
            acc = acc - mat[i][j] * sol[j]
        sol[i] = acc / mat[i][i]
    return sol


def _binom_weight(n: int, m: int) -> int:
    """C(n+m-1, m-1) as the polynomial in n, valid for any integer n."""
    num = 1
    for i in range(1, m):
        num *= n + i
    return num // math.factorial(m - 1)


def inverse_z(
    expansion: "PartialFractionExpansion | Iterable[PartialFractionTerm]",
    roc: Roc,
    n0: int,
    n1: int,
) -> SequenceWindow:
    """Inverse transform on the window [n0, n1] for one region of convergence.

    A pole on or inside the inner radius contributes the right-sided sequence
    coefficient * C(n+m-1, m-1) * pole^n for n >= 0; a pole on or outside the
    outer radius contributes the left-sided sequence
    -coefficient * C(n+m-1, m-1) * pole^n for n <= -m.  A pole strictly
    inside the annulus makes the region invalid.  The finite polynomial part
    contributes at its literal delays.
    """
    if n1 < n0:
        raise ValueError(f"empty window [{n0}, {n1}]")
    if isinstance(expansion, PartialFractionExpansion):
        terms = expansion.terms
        poly_part = expansion.poly_part
    else:
        terms = tuple(expansion)
        poly_part = Polynomial(())
    exact = all(t.pole.exact for t in terms)
    scalar = _scalar_map(exact)
    sides = [
        (scalar(t.coefficient), scalar(t.pole.value), t.order, _right_sided(t.pole.modulus(), roc))
        for t in terms
    ]
    poly = [scalar(c) for c in poly_part.coeffs]
    zero = scalar(_ZERO)
    values = []
    out_of_range = f"numeric window [{n0}, {n1}] leaves float range"
    try:
        for n in range(n0, n1 + 1):
            acc = zero
            if 0 <= n < len(poly):
                acc = acc + poly[n]
            for c, p, m, right in sides:
                if right and n >= 0:
                    acc = acc + c * _binom_weight(n, m) * p ** n
                elif not right and n <= -m:
                    acc = acc - c * _binom_weight(n, m) * p ** n
            values.append(acc)
    except OverflowError:  # a float pole ** n; field arithmetic never overflows
        raise OverflowError(out_of_range) from None
    if not exact and not all(cmath.isfinite(v) for v in values):
        raise OverflowError(out_of_range)
    # A numeric window keeps the real part: conjugate pole pairs cancel the
    # imaginary rounding residue.
    return SequenceWindow(n0, values)


def reciprocal_system(sys: RationalSystem) -> RationalSystem:
    """The system with z replaced by 1/z, as a causal-form representative.

    The literal substitution leaves an extra pure-delay factor z^-k and
    possibly a sign -1 once everything is rewritten in nonnegative powers of
    z^-1.  Both factors have unit modulus on the unit circle, so they are
    stripped: the result has denominator constant term 1 and a positive
    leading numerator coefficient, and its poles are exactly the reciprocals
    of the original ones.
    """
    num, den = sys.numerator, sys.denominator
    span = max(num.degree, den.degree, 0)
    rnum = Polynomial([num.coefficient(span - i) for i in range(span + 1)])
    rden = Polynomial([den.coefficient(span - i) for i in range(span + 1)])
    delays = [p.lead_delay() for p in (rnum, rden) if p.lead_delay() is not None]
    shared = min(delays) if delays else 0
    if shared:
        rnum = rnum.unshifted(shared)
        rden = rden.unshifted(shared)
    if not rden.coefficient(0):
        raise MalformedSystemError("reciprocal system has no causal representation")
    own = rnum.lead_delay()
    if own:
        rnum = rnum.unshifted(own)
    poles = None
    if sys.pole_factors is not None:
        poles = [Pole(p.value.inv(), p.multiplicity) for p in sys.pole_factors]
    flipped = RationalSystem(rnum, rden, poles)
    lead = flipped.numerator.lead_delay()
    if lead is not None and flipped.numerator.coefficient(lead).sign() < 0:
        flipped = RationalSystem(-flipped.numerator, flipped.denominator, poles)
    return flipped


def cascade(a: RationalSystem, b: RationalSystem) -> RationalSystem:
    """Series connection: numerators and denominators multiply.

    Factored pole multisets merge (multiplicities add), so exact pole
    knowledge survives past the degree-2 factoring limit.
    """
    num = a.numerator * b.numerator
    den = a.denominator * b.denominator
    pa, pb = a.pole_factors, b.pole_factors
    if pa is not None and pb is not None:
        counts: dict = {}
        for p in (*pa, *pb):
            counts[p.value] = counts.get(p.value, 0) + p.multiplicity
        poles = [Pole(v, m) for v, m in counts.items()]
        try:
            return RationalSystem(num, den, poles)
        except FieldMismatchError:
            pass
    return RationalSystem(num, den)


def fibonacci_system() -> RationalSystem:
    """1/(1 - z^-1 - z^-2): causal impulse response f(n+1), poles phi, phi~."""
    return RationalSystem([1], [1, -1, -1])


def accumulator_system() -> RationalSystem:
    """1/(1 - z^-1): the running-sum system, single pole at z = 1."""
    return RationalSystem([1], [1, -1])


def min_phase_system() -> RationalSystem:
    """phi~ z^-1/(1 - phi^-1 z^-1)^2: both poles inside the unit circle.

    Shares the magnitude profile family of the two-pole Fibonacci system but
    decays; its causal impulse response is -n phi^-n.
    """
    inv_phi = GOLDEN_RATIO.inv()
    return RationalSystem(
        [0, GOLDEN_RATIO_CONJUGATE],
        [1, -2 * inv_phi, inv_phi * inv_phi],
    )
