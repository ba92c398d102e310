"""Rational discrete-time systems in z^-1 with exact pole analysis.

Transfer functions are ratios of polynomials in z^-1 with exact coefficients
(see `qfield`, whose Kronecker-substitution product multiplies them).  A
denominator splits exactly into square-free parts (Yun's algorithm), so
every pole multiplicity is exact; parts of degree <= 2 factor over the
rationals or a real quadratic field.  The other parts have numeric roots,
found in plain Python (Aberth–Ehrlich, then one Newton step in integer
arithmetic on a rational polynomial where the root is simple, so each is
the correctly rounded root).  Each system keeps these factors as one
record, and `cascade` and `reciprocal_system` build their results' records
from their operands' instead of searching again.  Regions of
convergence are open annuli between pole moduli.  Partial-fraction residues
come from the cover-up rule, each pole's from products of pole differences
and truncated series, with no cofactor expanded.  The region's side picks
the inverse transform's path.  A one-sided region runs the system's
recursion, so its samples are exact whatever the poles: the causal region
reads the series of N/D in z^-1 and the innermost disc the series in z
(both `qfield._exact_quotient`).  Every two-sided region (and an expansion
passed without its system) sums the terms as right- or left-sided pole
powers: in floats for numeric poles, and for exact ones on scaled integers
(`qfield._exact_pole_sum`).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import cmp_to_key
from sys import float_info
from typing import Iterable, NamedTuple, Union

from .qfield import (
    FieldMismatchError,
    GOLDEN_RATIO,
    GOLDEN_RATIO_CONJUGATE,
    QuadRational,
    _binom_weight,
    _exact_pole_sum,
    _exact_product,
    _exact_quotient,
    _field,
    _scaled,
    sqrt_exact,
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
#: Sweeps after which the Aberth–Ehrlich root finder stops, converged or not.
_ABERTH_MAX_SWEEPS = 100
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
    lifted = [v if isinstance(v, QuadRational) else QuadRational(v) for v in items]
    _field(lifted)
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

    def coefficient(self, k: int) -> QuadRational:
        """The coefficient of z^-k (zero outside the stored range)."""
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return _ZERO

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
        """Scale by a field element, or multiply two polynomials exactly.

        The product of two polynomials is one Kronecker-substitution product
        (`_exact_product`): one big-int multiplication for rational
        coefficients, three for Q(sqrt(d)).
        """
        if isinstance(other, (int, Fraction, QuadRational)):
            return Polynomial([c * other for c in self._coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial()
        return Polynomial(_exact_product(self._coeffs, other._coeffs))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Polynomial":
        if isinstance(scalar, (int, Fraction)):
            scalar = QuadRational(scalar)
        if not isinstance(scalar, QuadRational):
            return NotImplemented
        return self * scalar.inv()

    def __divmod__(self, other) -> "tuple[Polynomial, Polynomial]":
        """Division with remainder: self = quotient*other + remainder, deg r < deg other.

        Division by reversal (von zur Gathen & Gerhard, *Modern Computer
        Algebra*, 9.1): the quotient's coefficients are samples 0..deg self -
        deg other of the left-sided expansion of self/other, the series of
        rev(self)/rev(other) (`_anticausal_series`), where the pole terms are
        still zero.  The remainder is self - quotient*other, one
        `_exact_product`.
        """
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        top = self.degree - other.degree
        if top < 0:
            return Polynomial(), self
        quot = Polynomial(_anticausal_series(self, other, 0, top))
        return quot, self - quot * other

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


class Pole(NamedTuple):
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


class Roc(NamedTuple):
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
        """Every value multiplied by c; an exact window scales exactly, an inexact one in floats."""
        if not self._exact and isinstance(c, QuadRational):
            c = float(c)
        elif self._exact and not isinstance(c, QuadRational):
            c = Fraction(c)
        return SequenceWindow(self._n0, [c * v for v in self._values])

    def __add__(self, other) -> "SequenceWindow":
        if not isinstance(other, SequenceWindow):
            return NotImplemented
        n0 = min(self._n0, other._n0)
        n1 = max(self.n1, other.n1)
        # An inexact window makes the sum inexact, as in `convolve`.
        lift = (lambda v: v) if self._exact and other._exact else float
        return SequenceWindow(
            n0, [lift(self.value_at(n)) + lift(other.value_at(n)) for n in range(n0, n1 + 1)]
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


class _Part(NamedTuple):
    """A square-free factor that `_exact_poles` cannot split, with its roots."""

    part: Polynomial  # constant term 1
    multiplicity: int
    roots: tuple[complex, ...]  # correctly rounded, by `_numeric_poles`


class RationalSystem:
    """A rational transfer function N(z^-1)/D(z^-1) with exact coefficients.

    The denominator is normalized so its constant term is 1.  Its poles come
    from one record of pairwise coprime square-free factors with their
    multiplicities, each an exact linear factor (the `Pole` of its root) or
    a `_Part` with numeric roots.  `cascade` and `reciprocal_system` build
    it from their operands'; otherwise `_factorise` finds it on first use.
    Poles passed as `poles` become the record: int/Fraction values lifted to
    field elements, equal values merged (multiplicities add), and the
    expansion verified against the denominator.
    """

    __slots__ = ("_num", "_den", "_factors")

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
        self._factors = None
        if poles is not None:
            poles = tuple(poles)
            if not all(p.exact for p in poles):
                raise ValueError("a stored pole multiset must be exact")
            values = _lift(p.value for p in poles)
            self._factors = _merge(Pole(v, p.multiplicity) for v, p in zip(values, poles))
            if _expand_factors(self._factors) != den:
                raise MalformedSystemError(
                    "factored pole multiset does not expand to the denominator"
                )

    @property
    def numerator(self) -> Polynomial:
        return self._num

    @property
    def denominator(self) -> Polynomial:
        return self._den

    @property
    def order(self) -> int:
        return self._den.degree

    def _record(self) -> tuple:
        """The factor record, found on first use."""
        if self._factors is None:
            self._factors = _factorise(self._den)
        return self._factors

    def poles(self) -> tuple[Pole, ...]:
        """Poles by modulus; all complex once a factor is numeric or exact roots span two fields."""
        factors = self._record()
        poles = [f for f in factors if isinstance(f, Pole)]
        exact = len(poles) == len(factors) and len({p.value.d for p in poles if p.value.b}) < 2
        poles += [Pole(z, f.multiplicity) for f in factors if isinstance(f, _Part) for z in f.roots]
        if not exact:
            poles = [Pole(complex(p.value), p.multiplicity) for p in poles]
        return tuple(sorted(poles, key=_pole_sort_key))

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


def _factor_power(value: QuadRational, m: int) -> list[QuadRational]:
    """Coefficients in z^-1 of (1 - value z^-1)^m, by the binomial theorem."""
    return [math.comb(m, j) * (-value) ** j for j in range(m + 1)]


def _expand_factors(poles: Iterable[Pole]) -> Polynomial:
    """The product of (1 - p z^-1)^m over exact poles, by `_exact_product`."""
    prod = [_ONE]
    for p in poles:
        prod = _exact_product(prod, _factor_power(p.value, p.multiplicity))
    return Polynomial(prod)


def find_poles(den) -> list[Pole]:
    """Poles (z-plane roots of the denominator) with exact multiplicities.

    The poles of ``RationalSystem([1], den)``, so `den` is normalized, and
    checked (MalformedSystemError), as a system's denominator.
    """
    return list(RationalSystem([1], den).poles())


def _factorise(den: Polynomial) -> tuple:
    """The factor record of a denominator with constant term 1.

    A denominator of degree >= 3 first splits into square-free parts by
    Yun's algorithm (`_square_free_parts`), so no float decides a
    multiplicity.  Parts of degree <= 2 factor exactly where they can
    (`_exact_poles`); any other part (degree >= 3, a complex pair, or a
    discriminant root from another field) is kept whole with its correctly
    rounded roots (`_numeric_poles`).
    """
    if den.degree < 1:
        return ()
    factors: list = []
    for part, m in _square_free_parts(den) if den.degree >= 3 else [(den, 1)]:
        factors += _exact_poles(part.coeffs, m) or [_Part(part, m, _numeric_poles(part))]
    return tuple(factors)


def _merge(poles: Iterable[Pole]) -> tuple[Pole, ...]:
    """Linear factors with equal roots joined into one; multiplicities add."""
    counts: dict = {}
    for p in poles:
        counts[p.value] = counts.get(p.value, 0) + p.multiplicity
    return tuple(Pole(v, m) for v, m in counts.items())


def _exact_poles(c, m: int) -> "list[Pole] | None":
    """Exact roots of c0 z^n + ... + cn, n <= 2, a factor of multiplicity m, or None."""
    if len(c) == 2:
        # c0 + c1 w = 0 at w = 1/z, so z = -c1/c0.
        return [Pole(-(c[1] / c[0]), m)]
    if len(c) != 3:
        return None
    c0, c1, c2 = c
    disc = c1 * c1 - 4 * c0 * c2
    if not disc:
        return [Pole(-(c1 / (2 * c0)), 2 * m)]
    root = sqrt_exact(disc)
    if root is None:
        return None
    try:
        return [Pole((-c1 + sign * root) / (2 * c0), m) for sign in (1, -1)]
    except FieldMismatchError:
        # Discriminant root lives in a different field than the coefficients.
        return None


def _square_free_parts(den: Polynomial) -> list[tuple[Polynomial, int]]:
    """The pairs (a_i, i), deg a_i >= 1, of den = c * a_1 * a_2^2 * a_3^3 ...

    The a_i are square-free and pairwise coprime: Yun's algorithm (Yun 1976,
    "On square-free decomposition algorithms") on Euclid's gcd and exact
    division.  A square-free den, with gcd(den, den') = 1, is its own part.
    """
    deriv = _derivative(den)
    common = _gcd(den, deriv)
    if not common.degree:
        return [(den, 1)]
    parts, i = [], 1
    b, c = divmod(den, common)[0], divmod(deriv, common)[0]
    while b.degree > 0:
        d = c - _derivative(b)
        a = _gcd(b, d)
        if a.degree:
            parts.append((a, i))
        b, c, i = divmod(b, a)[0], divmod(d, a)[0], i + 1
    return parts


def _derivative(p: Polynomial) -> Polynomial:
    """The derivative in w = z^-1."""
    return Polynomial([QuadRational(k * c.a, k * c.b, c.d) for k, c in enumerate(p.coeffs)][1:])


def _gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """gcd(a, b) by Euclid's algorithm in integers, scaled to constant term 1.

    The operands become integer pairs A + B sqrt(d) (`_scaled`).  A step
    replaces u by lc(v) u - lc(u) w^k v until deg u < deg v, and each
    remainder is divided by the gcd of its integers, so no Fraction is built
    until the end.  Every gcd taken here divides a denominator, whose
    constant term is not 0.
    """
    d = _field((*a.coeffs, *b.coeffs))
    u, v = (list(zip(*_scaled(p.coeffs)[:2])) for p in (a, b))
    while v:
        while len(u) >= len(v):
            (p, q), (h, k) = v[-1], u[-1]
            shifted = [(0, 0)] * (len(u) - len(v)) + v[:-1]
            u = [
                (p * x + d * q * y - h * s - d * k * t, p * y + q * x - h * t - k * s)
                for (x, y), (s, t) in zip(u[:-1], shifted)
            ]
            while u and u[-1] == (0, 0):
                u.pop()
        content = math.gcd(*(x for pair in u for x in pair)) or 1
        u, v = v, [(x // content, y // content) for x, y in u]
    g = Polynomial([QuadRational(x, y, d or 5) for x, y in u])
    return g / g.coeffs[0]


def _numeric_poles(part: Polynomial) -> tuple[complex, ...]:
    """The correctly rounded roots of a square-free part.

    Each root from `_aberth_roots` goes onto an axis it lies on to rounding
    (`_on_axis`), must pass the residual check, takes one `_exact_newton`
    step on a rational polynomial in which it is simple, and goes onto an
    axis again.  That polynomial is the part when it is rational.  An
    irrational part P splits off the rational R = gcd(P, conj P): roots of R
    step on R, those of S = P/R on S conj(S) = P conj(P)/R^2, which is
    rational and square-free.  A root found twice raises ArithmeticError.
    """
    pieces = [(part, part)]
    if any(c.b for c in part.coeffs):
        conj = Polynomial([c.conj() for c in part.coeffs])
        common = _gcd(part, conj)
        rest = divmod(part, common)[0]
        pieces = [(common, common), (rest, divmod(part * conj, common * common)[0])]
    roots: list[complex] = []
    for piece, rational in pieces:
        if piece.degree < 1:
            continue
        coeffs = piece.float_coeffs()  # z-polynomial, highest power of z first
        ints = _scaled(rational.coeffs)[0]
        scale = max(abs(cf) for cf in coeffs)
        for z in map(_on_axis, _aberth_roots(coeffs)):
            residual = abs(_horner(coeffs, z)) / (scale * max(1.0, abs(z)) ** piece.degree)
            if residual > _NUMERIC_RESIDUAL_TOL:
                raise ArithmeticError(
                    f"numeric root finder residual {residual:.3e} exceeds tolerance"
                )
            roots.append(_on_axis(_exact_newton(ints, z)))
    if len(set(roots)) < len(roots):
        raise ArithmeticError("numeric root finder found one root twice")
    return tuple(roots)


def _on_axis(z: complex) -> complex:
    """z on the real or imaginary axis when its other part is rounding-sized."""
    if abs(z.imag) <= 1e-12 * abs(z.real):
        return complex(z.real, 0.0)
    return complex(0.0, z.imag) if abs(z.real) <= 1e-12 * abs(z.imag) else z


def _aberth_roots(coeffs: list[float]) -> list[complex]:
    """All roots of a float polynomial (highest power first), by Aberth–Ehrlich.

    The n approximations start on the circle of radius |c_n/c_0|^(1/n), the
    geometric mean of the root moduli, rotated 0.7 rad off the axes (Bini
    1996, *Numer. Algorithms* 13).  Each sweep moves every approximation in
    place by Newton's correction with the others deflated (Aberth 1973,
    *Math. Comp.* 27): z_i -= p / (p' - p * sum_{j != i} 1/(z_i - z_j)).  An
    approximation stops once |p(z_i)| is within the rounding error of
    evaluating p there.
    """
    n = len(coeffs) - 1
    radius = abs(coeffs[-1] / coeffs[0]) ** (1 / n)
    zs = [cmath.rect(radius, 0.7 + 2 * math.pi * k / n) for k in range(n)]
    terms = [(cf, 4 * n * float_info.epsilon * abs(cf)) for cf in coeffs]
    live = [True] * n
    for _ in range(_ABERTH_MAX_SWEEPS):
        for i, z in enumerate(zs):
            if not live[i]:
                continue
            p = dp = 0j
            bound = 0.0
            mod = abs(z)
            for cf, err in terms:
                dp = dp * z + p
                p = p * z + cf
                bound = bound * mod + err
            if abs(p) <= bound:
                live[i] = False
                continue
            step = dp - p * sum(1 / (z - y) for y in zs if y != z)
            if step:
                zs[i] = z - p / step
        if not any(live):
            break
    return zs


def _exact_newton(ints: list[int], z: complex) -> complex:
    """One Newton step from z on an integer polynomial, rounded once.

    `ints` are the coefficients of p, highest power first, and n its degree.
    Write z = w/q with w a Gaussian integer and q a power of two.  Horner's
    scheme in integers gives P = q^n p(z) and D = q^(n-1) p'(z), and the
    Newton step is (wD - P)/(qD).  Each part is one int/int true division,
    which is correctly rounded.  Returns z unchanged where p' vanishes.
    """
    (xr, qr), (xi, qi) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    q = max(qr, qi)
    wr, wi = xr * (q // qr), xi * (q // qi)
    pr = pi = dr = di = 0
    qk = 1  # q^k
    for c in ints:
        dr, di = dr * wr - di * wi + pr, dr * wi + di * wr + pi
        pr, pi = pr * wr - pi * wi + c * qk, pr * wi + pi * wr
        qk *= q
    norm = dr * dr + di * di
    if not norm:
        return z
    nr, ni = wr * dr - wi * di - pr, wr * di + wi * dr - pi
    return complex((nr * dr + ni * di) / (q * norm), (ni * dr - nr * di) / (q * norm))


def _horner(coeffs, z: complex) -> complex:
    acc = 0j
    for cf in coeffs:
        acc = acc * z + cf
    return acc


def enumerate_rocs(poles: Iterable[Pole]) -> list[Roc]:
    """All open annuli bounded by pole moduli, innermost disc first.

    k distinct moduli give k+1 regions, each with its derived causal and
    stable tags.  The moduli are ordered by `_cmp_modulus`, so exact ones
    exactly, even where two round to one float.
    """
    poles = list(poles)
    moduli: list = []
    for p in poles:
        m = p.modulus()
        if not any(_cmp_modulus(m, seen) == 0 for seen in moduli):
            moduli.append(m)
    moduli.sort(key=cmp_to_key(_cmp_modulus))
    zero = _ZERO if all(p.exact for p in poles) else 0.0
    bounds = [zero, *moduli, None]
    return [Roc(r_in, r_out) for r_in, r_out in zip(bounds, bounds[1:])]


class PartialFractionTerm(NamedTuple):
    """One term coefficient/(1 - pole*z^-1)^order of an expansion."""

    pole: Pole
    order: int
    coefficient: QuadRational | complex


class PartialFractionExpansion:
    """Terms plus the finite polynomial part from polynomial division.

    `system` is the system the expansion came from (`partial_fractions`
    records it; numeric terms could not give it back), or None.  It decides
    how `inverse_z` computes a window: with a system, every window whose
    poles all lie on one side of the region comes from the system's
    recursion; every other window is the pole sum of the terms.  It takes no
    part in equality, hashing or repr.  The fields are read-only.
    """

    __slots__ = ("terms", "poly_part", "system")

    def __init__(
        self,
        terms: tuple[PartialFractionTerm, ...],
        poly_part: Polynomial,
        system: "RationalSystem | None" = None,
    ) -> None:
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "poly_part", poly_part)
        object.__setattr__(self, "system", system)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return type(self), (self.terms, self.poly_part, self.system)

    def __eq__(self, other) -> bool:
        if isinstance(other, PartialFractionExpansion):
            return (self.terms, self.poly_part) == (other.terms, other.poly_part)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.terms, self.poly_part))

    def __repr__(self) -> str:
        return f"PartialFractionExpansion(terms={self.terms!r}, poly_part={self.poly_part!r})"

    @property
    def exact(self) -> bool:
        return all(t.pole.exact for t in self.terms)

    def reconstruct(self) -> RationalSystem:
        """Recombine the expansion over the common denominator (exact only)."""
        if not self.exact:
            raise ValueError("cannot reconstruct exactly from numeric terms")
        poles = tuple({t.pole.value: t.pole for t in self.terms}.values())
        den = _expand_factors(poles)
        num = self.poly_part * den
        for t in self.terms:
            # The basis den/(1 - p z^-1)^order is a polynomial: its series, cut at its degree.
            top = den.degree - t.order + 1
            basis = Polynomial(_exact_quotient(den.coeffs, _factor_power(t.pole.value, t.order), top))
            num = num + basis * t.coefficient
        return RationalSystem(num, den, poles)


def partial_fractions(sys: RationalSystem) -> PartialFractionExpansion:
    """Expand N/D into first- and higher-order pole terms plus a finite part.

    Division with remainder first leaves a remainder R of degree below D's.
    Each pole p of multiplicity m then gets its residues by the cover-up
    rule: with D = (1 - p z^-1)^m * Q, the coefficients of orders m, m-1,
    ..., 1 are the first m Taylor coefficients of R/Q in u = 1 - p z^-1 at
    u = 0.  Q is never expanded: at z^-1 = (1 - u)/p each other pole q of
    multiplicity k contributes p^-k ((p - q) + q u)^k, so Q's series is
    p^(m - K), K = deg D, times a product of linear factors in u truncated to
    m terms, whose constant term is a product of pole differences.  Exact and
    numeric (complex) poles share this one computation.
    """
    poles = sys.poles()
    quot, rem = divmod(sys.numerator, sys.denominator)
    total = sum(p.multiplicity for p in poles)
    assert total == sys.denominator.degree, "pole multiplicities disagree with degree"
    scalar = _scalar_map(all(p.exact for p in poles))
    one = scalar(_ONE)
    zero = one - one
    num = [scalar(c) for c in rem.coeffs]
    factors = [(scalar(p.value), p.multiplicity) for p in poles]
    terms = []
    for pole, (p, m) in zip(poles, factors):
        # R's series by Horner's scheme at z^-1 = (1 - u)/p, truncated to m terms.
        inv, r = one / p, [zero] * m
        for c in reversed(num):
            r = [r[0] * inv + c] + [(r[i] - r[i - 1]) * inv for i in range(1, m)]
        # Q's series times p^(K - m): the other poles' factors (p - q) + q u, multiplied.
        q = [one] + [zero] * (m - 1)
        for other, k in factors:
            if other != p:
                gap = p - other
                for _ in range(k):
                    q = [q[0] * gap] + [q[i] * gap + q[i - 1] * other for i in range(1, m)]
        series = []
        for k in range(m):
            acc = r[k]
            for i in range(1, k + 1):
                acc = acc - q[i] * series[k - i]
            series.append(acc / q[0])
        scale = p ** (total - m)
        terms += [PartialFractionTerm(pole, j, series[m - j] * scale) for j in range(1, m + 1)]
    return PartialFractionExpansion(tuple(terms), quot, sys)


def _scalar_map(exact: bool):
    """The scalars of one arithmetic path: field elements as they are, or complex."""
    return (lambda v: v) if exact else complex


def inverse_z(
    expansion: PartialFractionExpansion, roc: Roc, n0: int, n1: int
) -> SequenceWindow:
    """Inverse transform on the window [n0, n1] for one region of convergence.

    A pole on or inside the inner radius contributes a right-sided term, a
    pole on or outside the outer radius a left-sided one; a pole strictly
    inside the annulus makes the region invalid.  When every pole lies on one
    side and the expansion records its system N/D, the window comes from the
    system's recursion, exactly:

    - every pole right-sided (the causal region): coefficients n0..n1 of the
      series N/D in z^-1 (`_exact_quotient`);
    - every pole left-sided (the innermost disc): with deg N = M, deg D = K
      and N~, D~ the reversed coefficient lists, H = z^(K-M) N~(z)/D~(z),
      whose Taylor series in z gives h(M-K-j) for j >= 0.

    Otherwise -- a two-sided region, an expansion without its system, or N
    and D with irrational parts from two fields -- the window is the pole sum
    (`_pole_sum`): in floats for numeric poles, and on scaled integers
    (`qfield._exact_pole_sum`) for exact ones.
    """
    if n1 < n0:
        raise ValueError(f"empty window [{n0}, {n1}]")
    right = [_right_sided(t.pole.modulus(), roc) for t in expansion.terms]
    sys = expansion.system
    if sys is not None and (all(right) or not any(right)):
        series = _causal_series if all(right) else _anticausal_series
        try:
            return SequenceWindow(n0, series(sys.numerator, sys.denominator, n0, n1))
        except FieldMismatchError:
            pass
    return _pole_sum(expansion, right, n0, n1)


def _causal_series(num: Polynomial, den: Polynomial, n0: int, n1: int) -> list:
    """h(n0..n1) of the right-sided expansion of N/D, D[0] = 1."""
    if n1 < 0:
        return [_ZERO] * (n1 - n0 + 1)
    return [_ZERO] * -min(n0, 0) + _exact_quotient(num.coeffs, den.coeffs, n1 + 1, max(n0, 0))


def _anticausal_series(num: Polynomial, den: Polynomial, n0: int, n1: int) -> list:
    """h(n0..n1) of the left-sided expansion of N/D, read off rev(N)/rev(D).

    Both reversed lists are scaled by 1/d_K, which is never zero because
    trailing zeros are trimmed, so `_exact_quotient` divides by a constant
    term 1.
    """
    top = num.degree - den.degree  # M - K, the last index that may be nonzero
    if num.is_zero or n0 > top:
        return [_ZERO] * (n1 - n0 + 1)
    scale = den.coeffs[-1].inv()
    count = top - n0 + 1
    start = max(0, top - n1)
    ys = _exact_quotient(
        [c * scale for c in num.coeffs[::-1][:count]],
        [c * scale for c in reversed(den.coeffs)],
        count,
        start,
    )
    return ys[::-1] + [_ZERO] * (n1 - top + start)


def _pole_sum(expansion: PartialFractionExpansion, right: list[bool], n0: int, n1: int) -> SequenceWindow:
    """The window as a sum over the expansion's terms.

    A right-sided term contributes coefficient * C(n+m-1, m-1) * pole^n for
    n >= 0, a left-sided one -coefficient * C(n+m-1, m-1) * pole^n for
    n <= -m, and the finite polynomial part its literal delays.  Each term
    raises its pole once, at the end of its stretch nearest n = 0, and steps
    away from there by the pole (up) or its inverse (down), so a float power
    only shrinks: stepped up from a far negative n0 it would start from an
    underflowed 0.  An exact expansion runs on scaled integer pairs
    (`qfield._exact_pole_sum`), each sample reduced once; one whose values
    lie in two fields falls back to the per-sample field arithmetic below,
    which raises at the first sample that needs both.
    """
    if expansion.exact:
        terms = [(t.coefficient, t.pole.value, t.order, r) for t, r in zip(expansion.terms, right)]
        try:
            return SequenceWindow(n0, _exact_pole_sum(expansion.poly_part.coeffs, terms, n0, n1))
        except FieldMismatchError:
            pass
    scalar = _scalar_map(expansion.exact)
    zero = scalar(_ZERO)
    poly = [scalar(c) for c in expansion.poly_part.coeffs]
    values = [poly[n] if 0 <= n < len(poly) else zero for n in range(n0, n1 + 1)]
    out_of_range = f"numeric window [{n0}, {n1}] leaves float range"
    try:
        for t, right_sided in zip(expansion.terms, right):
            c, p, m = scalar(t.coefficient), scalar(t.pole.value), t.order
            if right_sided:
                ns, step = range(max(n0, 0), n1 + 1), p
            else:
                ns, step, c = range(min(n1, -m), n0 - 1, -1), scalar(_ONE) / p, -c
            if not ns:
                continue
            power = p ** ns[0]
            for n in ns:
                values[n - n0] = values[n - n0] + c * _binom_weight(n, m) * power
                power = power * step
    except OverflowError:  # a float pole ** n; field arithmetic never overflows
        raise OverflowError(out_of_range) from None
    if not expansion.exact and not all(cmath.isfinite(v) for v in values):
        raise OverflowError(out_of_range)
    # A numeric window keeps the real part: conjugate pole pairs cancel the
    # imaginary rounding residue.
    return SequenceWindow(n0, values)


def reciprocal_system(sys: RationalSystem) -> RationalSystem:
    """The system with z replaced by 1/z, as a causal-form representative.

    With deg N <= deg D = K, N(z)/D(z) = z^(deg N - K) rev(N)/rev(D) in z^-1,
    where rev reverses a coefficient list.  The pure delay and a sign -1 both
    have unit modulus on the unit circle, so they are stripped: the result is
    rev(N)/rev(D) with denominator constant term 1 (d_K != 0, since trailing
    zeros are trimmed) and a positive leading numerator coefficient (the sign
    of n_M d_K).  Its factor record reverses the original's: an exact root is
    inverted, a numeric part reversed and its roots found on it alone.  deg N
    > K leaves the advance z^(deg N - K), which has no causal form, so it
    raises MalformedSystemError.
    """
    num, den = sys.numerator, sys.denominator
    if num.degree > den.degree:
        raise MalformedSystemError("reciprocal system has no causal representation")
    if not num.is_zero and num.coeffs[-1].sign() * den.coeffs[-1].sign() < 0:
        num = -num
    flipped = RationalSystem(num.coeffs[::-1], den.coeffs[::-1])
    factors = []
    try:
        for f in sys._record():
            if isinstance(f, Pole):
                factors.append(Pole(f.value.inv(), f.multiplicity))
            else:
                part = Polynomial(f.part.coeffs[::-1]) / f.part.coeffs[-1]
                factors.append(_Part(part, f.multiplicity, _numeric_poles(part)))
    except ArithmeticError:  # roots not found: the flipped system finds its own
        return flipped
    flipped._factors = tuple(factors)
    return flipped


def cascade(a: RationalSystem, b: RationalSystem) -> RationalSystem:
    """Series connection: numerators and denominators multiply.

    The factor records join, equal exact roots adding their multiplicities,
    so exact poles survive past the degree-2 factoring limit.  With a numeric
    part, they join only if the denominators are coprime; else the product
    finds its own record on first use.
    """
    product = RationalSystem(a.numerator * b.numerator, a.denominator * b.denominator)
    try:
        factors = (*a._record(), *b._record())
    except ArithmeticError:  # roots not found: the product finds its own
        return product
    if all(isinstance(f, Pole) for f in factors):
        product._factors = _merge(factors)
    elif not _gcd(a.denominator, b.denominator).degree:
        product._factors = factors
    return product


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
