"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

Every pole, residue and closed-form sequence value in this package is an
element a + b*sqrt(d) with rational a, b and a square-free radicand d (d = 5
for the golden-ratio systems).  Keeping values in this form makes all
downstream decisions exact: ordering, rounding tests and region-of-convergence
radius comparisons are settled by integer sign analysis, never by floats.
A rational value (b = 0) has one representation and belongs to no
particular field.  `sqrt_exact` is the one exact square root: a rational
finds its root in the field it needs, an irrational value only in its own.
Three kernels work on field elements as integer pairs A + B*sqrt(d) over
one denominator, and reduce each output once: sequences multiply (as
polynomials or as windows) through `_exact_product`, divide as series
through `_exact_quotient`, and sum as pole powers c C(n+m-1, m-1) p^n
through `_exact_pole_sum`.  The series quotient scales its j-th state by
s^j, s the least integer that makes every tap s^k D_k an integer pair, not
by the taps' common denominator: the reduction strips that scale from each
output again, so the smaller s keeps far states smaller (L = 288 gives
s = 12).  `**` squares and multiplies the same pair.  The kernels read and
build the components directly, so they live beside the representation.
"""

from __future__ import annotations

import math
import re
from collections import deque
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "FieldMismatchError",
    "QuadRational",
    "GOLDEN_RATIO",
    "GOLDEN_RATIO_CONJUGATE",
    "SQRT5",
    "int_sqrt_exact",
    "sqrt_exact",
    "square_free_decompose",
]

RationalLike = int | Fraction


class FieldMismatchError(ValueError):
    """Two values with irrational parts from different fields were combined."""


#: The largest trial divisor: floor(cbrt(2^64)), so every m < 2^64 is decided.
_TRIAL_DIVISOR_MAX = 2_642_245


def _prime_powers(m: int, limit: int) -> tuple[list[tuple[int, int]], int]:
    """Factor m >= 1 by trial division up to `limit`: the pairs (f, e) and a cofactor r.

    The product of the f^e times r is m.  Trial division by 2, 3, 5, 7, 9, ...
    runs while p^3 <= the part of m left, so that part then has at most two
    prime factors: it is a prime squared, given as (prime, 2), or square-free,
    given whole as (part, 1), and r = 1.  If p passes `limit` first, trial
    stops and r > 1 is the part left undecided.
    """
    factors = []
    p = 2
    while p * p * p <= m:
        if p > limit:
            return factors, m
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    r = math.isqrt(m)
    if r * r == m:
        if r > 1:
            factors.append((r, 2))
    else:
        factors.append((m, 1))
    return factors, 1


def square_free_decompose(m: int) -> tuple[int, int]:
    """Write m >= 1 as s*s*k with k square-free and return (s, k).

    Trial division stops at `_TRIAL_DIVISOR_MAX`; raises ValueError when the
    part of m left then may still hide a square factor.
    """
    if m < 1:
        raise ValueError(f"expected a positive integer, got {m}")
    factors, rest = _prime_powers(m, _TRIAL_DIVISOR_MAX)
    if rest > 1:
        raise ValueError(f"cannot decide by trial division whether a square divides {m}")
    s = k = 1
    for p, e in factors:
        s *= p ** (e // 2)
        if e % 2:
            k *= p
    return s, k


def int_sqrt_exact(m: int) -> int | None:
    """Return the integer r with r*r == m, or None if m is not a square."""
    if m < 0:
        raise ValueError(f"expected a non-negative integer, got {m}")
    r = math.isqrt(m)
    return r if r * r == m else None


@lru_cache(maxsize=None)
def _validate_radicand(d: int) -> int:
    if d < 2:
        raise ValueError(f"radicand must be >= 2, got {d}")
    s, k = square_free_decompose(d)
    if s != 1:
        raise ValueError(f"radicand must be square-free, got {d} = {s}^2 * {k}")
    return d


_PARSE_RE = re.compile(
    r"""^\s*
        (?:(?P<rat>[+-]?\d+(?:/\d+)?))?
        (?:\s*(?P<sign>[+-])?\s*(?P<coef>\d+(?:/\d+)?)\s*\*\s*sqrt\(\s*(?P<rad>\d+)\s*\))?
        \s*$""",
    re.VERBOSE,
)


class QuadRational:
    """An element a + b*sqrt(d) of the real quadratic field Q(sqrt(d)).

    Values are immutable and store fully reduced `Fraction` components.
    A value with b = 0 is a plain rational: it embeds in any field, and its
    radicand is always the default 5, so equal rationals have one
    representation.  Arithmetic takes the field of the irrational operand;
    combining two values whose irrational parts live in different fields
    raises FieldMismatchError.  Comparisons use the real embedding
    (sqrt(d) > 0) and are exact.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(
        self,
        a: RationalLike | str = 0,
        b: RationalLike | str = 0,
        d: int = 5,
    ) -> None:
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError("components must be exact (int, Fraction or str), not float")
        self._a = Fraction(a)
        self._b = Fraction(b)
        self._d = 5
        if d != 5:
            d = _validate_radicand(int(d))
            if self._b:
                self._d = d

    # -- accessors ---------------------------------------------------------

    @property
    def a(self) -> Fraction:
        """Rational part."""
        return self._a

    @property
    def b(self) -> Fraction:
        """Coefficient of sqrt(d)."""
        return self._b

    @property
    def d(self) -> int:
        """Radicand of the field; 5 for every rational value."""
        return self._d

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    @property
    def is_integer(self) -> bool:
        return self._b == 0 and self._a.denominator == 1

    def as_fraction(self) -> Fraction:
        """The value as a Fraction; raises ValueError if it is irrational."""
        if self._b != 0:
            raise ValueError(f"{self} is irrational")
        return self._a

    def __int__(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return int(self._a)

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        if self._b == 0:
            return str(self._a)
        sep = "-" if self._b < 0 else "+"
        return f"{self._a}{sep}{abs(self._b)}*sqrt({self._d})"

    def __repr__(self) -> str:
        return f"QuadRational({self._a}, {self._b}, d={self._d})"

    @classmethod
    def parse(cls, text: str) -> "QuadRational":
        """Parse the canonical text form, e.g. ``1/2-1/2*sqrt(5)`` or ``-3/4``."""
        m = _PARSE_RE.match(text)
        if m is None or (m.group("rat") is None and m.group("coef") is None):
            raise ValueError(f"cannot parse quadratic value from {text!r}")
        a = Fraction(m.group("rat")) if m.group("rat") else Fraction(0)
        if m.group("coef") is None:
            return cls(a)
        if m.group("rat") is not None and m.group("sign") is None:
            raise ValueError(f"missing sign before sqrt term in {text!r}")
        b = Fraction(m.group("coef"))
        if m.group("sign") == "-":
            b = -b
        return cls(a, b, int(m.group("rad")))

    # -- coercion ------------------------------------------------------------

    def _pair(self, other) -> "tuple[QuadRational, int] | None":
        """Other as a field element and the result's radicand; None if not coercible."""
        if isinstance(other, QuadRational):
            if other._d == self._d or not other._b:
                return other, self._d
            if not self._b:
                return other, other._d
            raise FieldMismatchError(
                f"cannot combine sqrt({self._d}) and sqrt({other._d}) values"
            )
        if isinstance(other, (int, Fraction)):
            return QuadRational(other), self._d
        return None

    # -- ring operations -------------------------------------------------------

    def __add__(self, other) -> "QuadRational":
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        y, d = pair
        return QuadRational(self._a + y._a, self._b + y._b, d)

    __radd__ = __add__

    def __sub__(self, other) -> "QuadRational":
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        y, d = pair
        return QuadRational(self._a - y._a, self._b - y._b, d)

    def __rsub__(self, other) -> "QuadRational":
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        y, d = pair
        return QuadRational(y._a - self._a, y._b - self._b, d)

    def __neg__(self) -> "QuadRational":
        return QuadRational(-self._a, -self._b, self._d)

    def __pos__(self) -> "QuadRational":
        return self

    def __mul__(self, other) -> "QuadRational":
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        y, d = pair
        return QuadRational(
            self._a * y._a + d * self._b * y._b,
            self._a * y._b + self._b * y._a,
            d,
        )

    __rmul__ = __mul__

    def conj(self) -> "QuadRational":
        """Field conjugate a - b*sqrt(d)."""
        return QuadRational(self._a, -self._b, self._d)

    def norm(self) -> Fraction:
        """Field norm a*a - d*b*b (the product with the conjugate)."""
        return self._a * self._a - self._d * self._b * self._b

    def inv(self) -> "QuadRational":
        """Multiplicative inverse conj(x)/norm(x)."""
        nrm = self.norm()
        if nrm == 0:
            raise ZeroDivisionError(f"inverse of zero in Q(sqrt({self._d}))")
        return QuadRational(self._a / nrm, -self._b / nrm, self._d)

    def __truediv__(self, other) -> "QuadRational":
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return self * pair[0].inv()

    def __rtruediv__(self, other) -> "QuadRational":
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        return pair[0] * self.inv()

    def __pow__(self, n: int) -> "QuadRational":
        """Square-and-multiply power on the scaled integer pair, reduced once.

        With self = (A + B sqrt(d))/Q, self^n = (A + B sqrt(d))^n / Q^n: the
        pair is squared and multiplied in integers (`_pair_power`), and only
        the result builds `Fraction`s.  Negative exponents invert first.
        """
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        (a,), (b,), q = _scaled((self,))
        a, b = _pair_power(a, b, self._d, n)
        q **= n
        return _from_integers(a, b, q, self._d)

    # -- order and sign --------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real value: -1, 0 or +1."""
        sa = (self._a > 0) - (self._a < 0)
        if self._b == 0:
            return sa
        sb = (self._b > 0) - (self._b < 0)
        if self._a == 0 or sa == sb:
            return sb
        # Opposite-signed parts: compare a^2 against d*b^2.
        lhs = self._a * self._a
        rhs = self._d * self._b * self._b
        if lhs == rhs:  # impossible for square-free d >= 2 unless zero
            return 0
        return sa if lhs > rhs else sb

    def __abs__(self) -> "QuadRational":
        return -self if self.sign() < 0 else self

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return self._b == 0 and self._a == other
        if isinstance(other, float):
            # As Fraction does: a finite float by its exact value, and no
            # field element equals inf or nan.
            return math.isfinite(other) and self._b == 0 and self._a == Fraction(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b, self._d))

    def _cmp(self, other) -> "int | None":
        pair = self._pair(other)
        if pair is None:
            return None
        y, d = pair
        return QuadRational(self._a - y._a, self._b - y._b, d).sign()

    def __lt__(self, other) -> bool:
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c < 0

    def __le__(self, other) -> bool:
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c <= 0

    def __gt__(self, other) -> bool:
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c > 0

    def __ge__(self, other) -> bool:
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c >= 0

    # -- float embedding ---------------------------------------------------------

    def __float__(self) -> float:
        """Convert to float, accurate to a few ULP even under cancellation.

        The value is rewritten as (A + B*sqrt(d))/Q with integers, and
        floor(|B|*sqrt(d)*2^k) is taken with `math.isqrt`; k grows until the
        scaled numerator carries more than a double's 53 bits, so the single
        rounding happens in the final exact Fraction-to-float division.
        Raises OverflowError when the value is out of float range.
        """
        if self._b == 0:
            return float(self._a)
        (big_a,), (big_b,), q = _scaled((self,))
        shift = 64
        while True:
            root = math.isqrt(big_b * big_b * self._d << (2 * shift))
            num = (big_a << shift) + (root if big_b > 0 else -root)
            if abs(num).bit_length() > 56:
                return float(Fraction(num, q << shift))
            shift *= 2

    def __complex__(self) -> complex:
        return complex(float(self), 0.0)


def sqrt_exact(x: "RationalLike | QuadRational") -> QuadRational | None:
    """The non-negative exact square root of x, or None if there is none.

    A rational x >= 0 has its root in Q or in Q(sqrt(k)), k the square-free
    part of x; an irrational x has its root only inside its own field.  None
    also when the square-free part of a rational x is too costly to find.
    """
    if not isinstance(x, QuadRational):
        x = QuadRational(x)
    if x.sign() < 0:
        return None
    if not x:
        return x
    if not x.b:
        r = _rational_sqrt(x.a)
        if r is not None:
            return QuadRational(r)
        # sqrt(n/m) = sqrt(n*m)/m, and n*m = s*s*k with k > 1.
        m = x.a.denominator
        try:
            s, k = square_free_decompose(x.a.numerator * m)
        except ValueError:
            return None
        return QuadRational(0, Fraction(s, m), k)
    # Solve (p + q*sqrt(d))^2 = a + b*sqrt(d): p^2 + d q^2 = a, 2 p q = b,
    # with p^2 = (a +- sqrt(norm))/2 and both roots rational, so only
    # rational roots are looked for.
    root_norm = _rational_sqrt(x.norm())
    if root_norm is None:
        return None
    for p2 in ((x.a + root_norm) / 2, (x.a - root_norm) / 2):
        p = _rational_sqrt(p2)
        if not p:
            continue
        cand = QuadRational(p, x.b / (2 * p), x.d)
        if cand * cand == x:
            return abs(cand)
    return None


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """The rational r >= 0 with r*r == q, or None if there is none."""
    if q < 0:
        return None
    # sqrt(n/m) = sqrt(n*m)/m: rational iff n*m is a square.
    m = q.denominator
    r = int_sqrt_exact(q.numerator * m)
    return None if r is None else Fraction(r, m)


def _field(values) -> int:
    """The radicand of the irrational values, 0 if every value is rational.

    Raises FieldMismatchError when the irrational values come from two fields.
    """
    fields = {v._d for v in values if v._b}
    if len(fields) > 1:
        d1, d2 = sorted(fields)[:2]
        raise FieldMismatchError(f"cannot combine sqrt({d1}) and sqrt({d2}) values")
    return fields.pop() if fields else 0


def _scaled(values) -> tuple[list[int], list[int], int]:
    """Integers A, B and L with values[i] = (A[i] + B[i] sqrt(d)) / L."""
    den = math.lcm(*(v.a.denominator for v in values), *(v.b.denominator for v in values))
    return (
        [v.a.numerator * (den // v.a.denominator) for v in values],
        [v.b.numerator * (den // v.b.denominator) for v in values],
        den,
    )


_FRACTION_ZERO = Fraction(0)


def _from_integers(a: int, b: int, den: int, d: int) -> QuadRational:
    """(a + b sqrt(d))/den from the kernels' integers, each component reduced once.

    `__init__` is skipped: d comes from values already built, and is 0 only
    when they are all rational, so that b = 0.
    """
    value = object.__new__(QuadRational)
    value._a = Fraction(a, den)
    value._b = Fraction(b, den) if b else _FRACTION_ZERO
    value._d = d if b else 5
    return value


def _slot_offsets(count: int, size: int) -> int:
    """The packed int whose `count` slots of `size` bytes each hold 2^(8 size - 1)."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")


def _int_convolve(us: list[int], vs: list[int]) -> list[int]:
    """Integer convolution of us and vs by one big-int product.

    Kronecker substitution: each vector becomes one int with an entry per
    slot, wide enough for any output plus a sign bit, so the product's slots
    are the outputs.  Adding half a slot to every slot makes all slots
    non-negative, so they unpack independently as bytes.
    """
    count = len(us) + len(vs) - 1
    if not any(us) or not any(vs):
        return [0] * count
    bound = (
        max(map(abs, us)).bit_length()
        + max(map(abs, vs)).bit_length()
        + min(len(us), len(vs)).bit_length()
    )
    size = bound // 8 + 1  # every |output| < 2^bound <= 2^(8 size - 1)
    half = 1 << (8 * size - 1)

    def pack(ws):
        raw = b"".join((w + half).to_bytes(size, "little") for w in ws)
        return int.from_bytes(raw, "little") - _slot_offsets(len(ws), size)

    raw = (pack(us) * pack(vs) + _slot_offsets(count, size)).to_bytes(size * count, "little")
    return [
        int.from_bytes(raw[i : i + size], "little") - half for i in range(0, size * count, size)
    ]


def _exact_product(xs, hs) -> list[QuadRational]:
    """Coefficients of (sum xs[i] z^-i)(sum hs[j] z^-j) for field elements, exactly.

    Each operand is scaled to integer vectors A + B sqrt(d) over one common
    denominator, and every integer convolution is one big-int product, which
    CPython multiplies by Karatsuba (von zur Gathen & Gerhard, *Modern
    Computer Algebra*, 8.4).  Irrational operands take three products:
    A*A', B*B' and (A+B)*(A'+B').  Operands with irrational parts from two
    fields raise FieldMismatchError.
    """
    d = _field((*xs, *hs))
    ax, bx, lx = _scaled(xs)
    ah, bh, lh = _scaled(hs)
    den = lx * lh
    p = _int_convolve(ax, ah)
    if not d:
        rows = [(a, 0) for a in p]
    else:
        q = _int_convolve(bx, bh)
        r = _int_convolve([a + b for a, b in zip(ax, bx)], [a + b for a, b in zip(ah, bh)])
        rows = [(pk + d * qk, rk - pk - qk) for pk, qk, rk in zip(p, q, r)]
    return [_from_integers(a, b, den, d) for a, b in rows]


#: The largest trial divisor of a tap denominator in `_step_scale`.  Tap
#: denominators are products of small primes in practice; a larger prime
#: factor only makes the step scale larger than the least, never wrong.
_STEP_TRIAL_MAX = 1000


def _step_scale(ds) -> int:
    """The least s >= 1 with s^k ds[k] an integer pair for every k >= 1.

    A prime power p^e of the denominator of ds[k] needs p^ceil(e/k) in s.
    A cofactor that trial division up to `_STEP_TRIAL_MAX` leaves undecided
    goes into s whole, which is valid but may not be least.  Each tap's need
    divides its denominator, so s divides the taps' common denominator.
    """
    s = 1
    for k, v in enumerate(ds[1:], 1):
        q = math.lcm(v._a.denominator, v._b.denominator)
        if (s**k) % q:
            factors, need = _prime_powers(q, _STEP_TRIAL_MAX)
            for p, e in factors:
                need *= p ** -(-e // k)
            s = math.lcm(s, need)
    return s


def _exact_quotient(us, ds, count: int, start: int = 0) -> list[QuadRational]:
    """Coefficients start..count-1 of U(z^-1)/D(z^-1) for field elements, D[0] = 1.

    The series y of U/D obeys y_j = u_j - sum_{k>=1} D_k y_{j-k}.  With U
    scaled to integers over M (`_scaled`) and s the step scale of D
    (`_step_scale`: the least s with every s^k D_k an integer pair),
    Y_j = M s^j y_j obeys Y_j = U_j s^j - sum_k (s^k D_k) Y_{j-k}, a
    recursion in integer pairs A + B sqrt(d), so no tap builds or reduces a
    `Fraction`; only the last deg D states are kept, and each output from
    `start` on is reduced once, as Y_j / (M s^j).  The scale is what each
    reduction strips again, so it is kept least: s divides the taps' common
    denominator L and is often far smaller (L = 288 gives s = 12), so the
    states grow by log2(s) bits a step instead of log2(L).  U may be
    shorter or longer than `count`.  Values with irrational parts from two
    fields raise FieldMismatchError.
    """
    d = _field((*us, *ds))
    au, bu, m = _scaled(us[:count])
    step = _step_scale(ds)
    taps = [
        (v._a.numerator * step**k // v._a.denominator, v._b.numerator * step**k // v._b.denominator)
        for k, v in enumerate(ds[1:], 1)
    ]
    pad = [0] * (count - len(au))
    au += pad
    bu += pad
    ya: deque[int] = deque(maxlen=len(taps))
    yb: deque[int] = deque(maxlen=len(taps))
    out = []
    spow = 1  # s^j
    for j in range(count):
        a = au[j] * spow
        b = bu[j] * spow
        for (ta, tb), pa, pb in zip(taps, reversed(ya), reversed(yb)):
            a -= ta * pa + d * tb * pb
            b -= ta * pb + tb * pa
        ya.append(a)
        yb.append(b)
        if j >= start:
            out.append(_from_integers(a, b, m * spow, d))
        spow *= step
    return out


def _pair_power(x: int, y: int, d: int, n: int) -> tuple[int, int]:
    """The integer pair of (x + y sqrt(d))^n for n >= 0, by square-and-multiply.

    (x, y)(u, v) = (xu + d yv, xv + yu), so no step builds a `Fraction`.
    """
    px, py = 1, 0
    while n:
        if n & 1:
            px, py = px * x + d * py * y, px * y + py * x
        n >>= 1
        if n:
            x, y = x * x + d * y * y, 2 * x * y
    return px, py


def _binom_weight(n: int, m: int) -> int:
    """C(n+m-1, m-1) as the polynomial in n, valid for any integer n."""
    num = 1
    for i in range(1, m):
        num *= n + i
    return num // math.factorial(m - 1)


def _exact_pole_sum(poly, terms, n0: int, n1: int) -> list[QuadRational]:
    """Samples n0..n1 of a pole sum over field elements, exactly.

    Sample n is poly[n] (for 0 <= n < len(poly)) plus, for each term
    (c, p, m, right), c C(n+m-1, m-1) p^n if right and n >= 0, or
    -c C(n+m-1, m-1) p^n if not right and n <= -m.  So the samples n >= 0
    hold only right-sided terms and the samples n < 0 only left-sided ones,
    and each side is summed by `_one_sided_sum` as powers of its steps: p
    on the right, 1/p on the left.  Values with irrational parts from two
    fields raise FieldMismatchError.
    """
    d = _field((*poly, *(v for c, p, _, _ in terms for v in (c, p))))
    values = []
    if n0 < 0:
        left = [(-c, p.inv(), m) for c, p, m, r in terms if not r]
        values += _one_sided_sum([], left, -1, max(-n1, 1), -n0, d)[::-1]
    if n1 >= 0:
        right = [(c, p, m) for c, p, m, r in terms if r]
        values += _one_sided_sum(poly, right, 1, max(n0, 0), n1, d)
    return values


def _one_sided_sum(poly, terms, sign: int, e0: int, e1: int, d: int) -> list[QuadRational]:
    """Samples n = sign*e, e = e0..e1, of poly[n] + sum c C(n+m-1, m-1) s^e over terms (c, s, m).

    A term starts at e = 0 on the right (sign 1) and at e = m on the left
    (sign -1).  The coefficients and poly are scaled to integers over one
    denominator C and the steps s over one denominator L (`_scaled`), so a
    term at e is an integer pair over C L^e.  Each term raises its step
    once, at its first e (`_pair_power`), and multiplies its pair by the
    step from there; each sample is summed over C L^e and reduced once.
    """
    ca, cb, cden = _scaled([*poly, *(c for c, _, _ in terms)])
    xs, ys, lden = _scaled([s for _, s, _ in terms])
    acc_a = [0] * (e1 - e0 + 1)
    acc_b = [0] * (e1 - e0 + 1)
    for c_a, c_b, x, y, (_, _, m) in zip(ca[len(poly):], cb[len(poly):], xs, ys, terms):
        first = max(e0, m if sign < 0 else 0)
        pa, pb = _pair_power(x, y, d, first)
        va, vb = c_a * pa + d * c_b * pb, c_a * pb + c_b * pa
        for e in range(first, e1 + 1):
            w = _binom_weight(sign * e, m)
            acc_a[e - e0] += w * va
            acc_b[e - e0] += w * vb
            va, vb = va * x + d * vb * y, va * y + vb * x
    out = []
    lpow = lden**e0  # L^e
    for e, a, b in zip(range(e0, e1 + 1), acc_a, acc_b):
        if e < len(poly):
            a += ca[e] * lpow
            b += cb[e] * lpow
        den = cden * lpow
        out.append(_from_integers(a, b, den, d))
        lpow *= lden
    return out


#: The golden ratio (1 + sqrt(5))/2, the growing pole of the Fibonacci system.
GOLDEN_RATIO = QuadRational(Fraction(1, 2), Fraction(1, 2), 5)

#: Its field conjugate (1 - sqrt(5))/2 = -1/GOLDEN_RATIO, the decaying pole.
GOLDEN_RATIO_CONJUGATE = QuadRational(Fraction(1, 2), Fraction(-1, 2), 5)

#: sqrt(5) as an exact field element.
SQRT5 = QuadRational(0, 1, 5)
