"""Independent oracle for fiblti results.

Nothing here imports fiblti.  Field elements of Q(sqrt(d)) are `QF` values
built on `fractions.Fraction`; impulse responses come from the difference
equation itself (forward recursion for right-sided parts, backward recursion
for left-sided parts), never from pole powers, so a defect in the library's
pole sums cannot hide behind the same defect here.  Two-sided windows are
split exactly into a right-sided part over the inner poles and a left-sided
part over the outer poles by solving N = A*D_out + B*D_in.

Numeric (float) outputs are accepted within a relative 1e-9 of the exact
value, where "relative" is measured against the size of the recursion state
at that index (the largest |y| among the nine most recent exact samples),
so a value that passes near zero between large neighbours is not held to an
impossible standard.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction

REL_TOL = 1e-9
STATE = 9  # samples that bound the recursion state (order <= 8, plus the current one)


class QF:
    """a + b*sqrt(d) with rational a, b; d == 0 marks a plain rational."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=0):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = d if self.b else 0

    @staticmethod
    def lift(x) -> "QF":
        return x if isinstance(x, QF) else QF(x)

    def _field(self, other: "QF") -> int:
        if self.d and other.d and self.d != other.d:
            raise ValueError(f"sqrt({self.d}) and sqrt({other.d}) values do not mix")
        return self.d or other.d

    def __add__(self, other):
        other = QF.lift(other)
        return QF(self.a + other.a, self.b + other.b, self._field(other))

    __radd__ = __add__

    def __neg__(self):
        return QF(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-QF.lift(other))

    def __rsub__(self, other):
        return QF.lift(other) - self

    def __mul__(self, other):
        other = QF.lift(other)
        d = self._field(other)
        return QF(self.a * other.a + d * self.b * other.b, self.a * other.b + self.b * other.a, d)

    __rmul__ = __mul__

    def inv(self) -> "QF":
        norm = self.a * self.a - self.d * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        return QF(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        return self * QF.lift(other).inv()

    def __rtruediv__(self, other):
        return QF.lift(other) * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out, base = QF(1), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        other = QF.lift(other)
        if not self.b and not other.b:
            return self.a == other.a
        return self.d == other.d and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def sign(self) -> int:
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if not sb or not sa or sa == sb:
            return sb if not sa else sa
        lhs, rhs = self.a * self.a, self.d * self.b * self.b
        return sa if lhs > rhs else sb

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __float__(self):
        if not self.b:
            return float(self.a)
        # Exact to ~1 ulp: scale, take an integer square root, divide once.
        q = self.a.denominator * self.b.denominator
        big_a = self.a.numerator * self.b.denominator
        big_b = self.b.numerator * self.a.denominator
        shift = 128
        while True:
            root = math.isqrt(big_b * big_b * self.d << (2 * shift))
            num = (big_a << shift) + (root if big_b > 0 else -root)
            if abs(num).bit_length() > 60:
                return float(Fraction(num, q << shift))
            shift *= 2

    def __repr__(self):
        return f"QF({self.a}, {self.b}, {self.d})"


_VALUE_RE = re.compile(
    r"^(?P<rat>[+-]?\d+(?:/\d+)?)?(?:(?P<sign>[+-])?(?P<coef>\d+(?:/\d+)?)\*sqrt\((?P<rad>\d+)\))?$"
)


def parse_value(text: str):
    """Parse a CLI value: an exact `a`, `a+b*sqrt(d)`, or a float repr."""
    text = text.strip()
    m = _VALUE_RE.match(text)
    if m and (m.group("rat") or m.group("coef")):
        a = Fraction(m.group("rat")) if m.group("rat") else Fraction(0)
        if m.group("coef") is None:
            return QF(a)
        b = Fraction(m.group("coef"))
        return QF(a, -b if m.group("sign") == "-" else b, int(m.group("rad")))
    return float(text)


def from_program(v):
    """Lift a library value (QuadRational, Fraction, int or float) for comparison."""
    if isinstance(v, float):
        return v
    if hasattr(v, "b"):
        return QF(v.a, v.b, v.d)
    return QF(v)


# -- polynomials in w = z^-1, coefficient lists of QF (index k <-> w^k) ---------


def poly_trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [QF(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] = out[i + j] + a * b
    return out


def poly_sub(p, q):
    n = max(len(p), len(q))
    return poly_trim(
        (p[k] if k < len(p) else QF(0)) - (q[k] if k < len(q) else QF(0)) for k in range(n)
    )


def poly_divmod(p, q):
    """Long division by the highest power of w: p = quot*q + rem."""
    p, q = poly_trim(p), poly_trim(q)
    dq = len(q) - 1
    rem = list(p)
    if len(rem) - 1 < dq:
        return [], rem
    quot = [QF(0)] * (len(rem) - dq)
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i] / q[dq]
        quot[i - dq] = c
        if c:
            for j in range(dq + 1):
                rem[i - dq + j] = rem[i - dq + j] - c * q[j]
    return quot, poly_trim(rem[:dq])


def poles_poly(poles):
    """prod (1 - p w)^m over (pole, multiplicity) pairs."""
    out = [QF(1)]
    for p, m in poles:
        for _ in range(m):
            out = poly_mul(out, [QF(1), -p])
    return out


def solve(mat, rhs):
    n = len(rhs)
    mat = [row[:] for row in mat]
    rhs = rhs[:]
    for col in range(n):
        piv = next(r for r in range(col, n) if mat[r][col])
        mat[col], mat[piv] = mat[piv], mat[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        for r in range(n):
            if r != col and mat[r][col]:
                f = mat[r][col] / mat[col][col]
                rhs[r] = rhs[r] - f * rhs[col]
                for k in range(col, n):
                    mat[r][k] = mat[r][k] - f * mat[col][k]
    return [rhs[i] / mat[i][i] for i in range(n)]


# -- recursion oracles ------------------------------------------------------------


class LinearSeq:
    """v(i) = c(i) + sum_{j=1..K} r_j v(i-j) for i >= 0, with v(i) = 0 for i < 0.

    With L the lcm of every denominator in c and r, V(i) = L^(i+1) v(i) has
    integer components in Z[sqrt(d)], so the recursion runs on plain ints
    with no gcd per step; `value(i)` divides once, only for samples compared.
    """

    def __init__(self, consts, coeffs):
        consts = [QF.lift(c) for c in consts]
        coeffs = [QF.lift(r) for r in coeffs]
        fields = {v.d for v in consts + coeffs} - {0}
        if len(fields) > 1:
            raise ValueError(f"coefficients mix the fields {sorted(fields)}")
        self.d = fields.pop() if fields else 0
        dens = [x.denominator for v in consts + coeffs for x in (v.a, v.b)]
        self.scale = math.lcm(1, *dens)
        big_l = self.scale
        self.r = [(int(r.a * big_l**j), int(r.b * big_l**j)) for j, r in enumerate(coeffs, 1)]
        self.c = [(int(c.a * big_l), int(c.b * big_l)) for c in consts]
        self.vs: list[tuple[int, int]] = []

    def grow(self, n: int) -> None:
        vs, r, c, d, big_l = self.vs, self.r, self.c, self.d, self.scale
        while len(vs) <= n:
            i = len(vs)
            if i < len(c):
                lift = big_l**i
                acc_a, acc_b = c[i][0] * lift, c[i][1] * lift
            else:
                acc_a = acc_b = 0
            for j in range(1, min(len(r), i) + 1):
                ra, rb = r[j - 1]
                va, vb = vs[i - j]
                acc_a += ra * va + d * rb * vb
                acc_b += ra * vb + rb * va
            vs.append((acc_a, acc_b))

    def value(self, i: int) -> QF:
        if i < 0:
            return QF(0)
        self.grow(i)
        a, b = self.vs[i]
        den = self.scale ** (i + 1)
        return QF(Fraction(a, den), Fraction(b, den), self.d)


class ForwardSeq:
    """Right-sided solution of Q*y = P with Q[0] = 1: y(n) = 0 for n < 0."""

    def __init__(self, p, q):
        assert q[0] == 1, "denominator must be normalised"
        self.seq = LinearSeq(p, [-c for c in q[1:]])

    def at(self, n: int) -> QF:
        return self.seq.value(n)


class BackwardSeq:
    """Left-sided solution of Q*y = P: y(n) = 0 for n > deg P, grown downward."""

    def __init__(self, p, q):
        p, q = poly_trim(p), poly_trim(q)
        self.top = len(p) - 1
        big_k = len(q) - 1
        lead = q[big_k]
        # y(top - i) from the equation at index top - i + K.
        consts = [QF(0)] * big_k + [p[self.top - i] / lead for i in range(self.top + 1)]
        self.seq = LinearSeq(consts, [-q[big_k - j] / lead for j in range(1, big_k + 1)])

    def at(self, n: int) -> QF:
        return self.seq.value(self.top - n) if n <= self.top else QF(0)


def distinct_moduli(poles):
    mods: list[QF] = []
    for p, _ in poles:
        m = abs(p)
        if not any(m == s for s in mods):
            mods.append(m)
    mods.sort(key=float)
    return mods


class ImpulseOracle:
    """Exact impulse response of N/prod(1 - p w)^m for one region of convergence.

    `roc` indexes the regions as the library orders them: 0 is the inner disc,
    len(moduli) the outside of the largest pole circle.
    """

    def __init__(self, num, poles, roc: int):
        self.num = poly_trim(QF.lift(c) for c in num)
        mods = distinct_moduli(poles)
        if not 0 <= roc <= len(mods):
            raise ValueError(f"region {roc} out of range for {len(mods)} moduli")
        inner = [(p, m) for p, m in poles if any(abs(p) == s for s in mods[:roc])]
        outer = [(p, m) for p, m in poles if not any(abs(p) == s for s in mods[:roc])]
        self.den = poles_poly(poles)
        d_in, d_out = poles_poly(inner), poles_poly(outer)
        if not outer:
            self.parts = [ForwardSeq(self.num, d_in)]
        elif not inner:
            self.parts = [BackwardSeq(self.num, d_out)]
        else:
            k_out = len(d_out) - 1
            cols = [poly_divmod([QF(0)] * j + d_in, d_out)[1] for j in range(k_out)]
            rhs_poly = poly_divmod(self.num, d_out)[1]
            mat = [[c[i] if i < len(c) else QF(0) for c in cols] for i in range(k_out)]
            rhs = [rhs_poly[i] if i < len(rhs_poly) else QF(0) for i in range(k_out)]
            b = solve(mat, rhs)
            a, rem = poly_divmod(poly_sub(self.num, poly_mul(b, d_in)), d_out)
            assert not rem, "Bezout split left a remainder"
            self.parts = [ForwardSeq(a, d_in), BackwardSeq(b, d_out)]

    def at(self, n: int) -> QF:
        acc = QF(0)
        for part in self.parts:
            acc = acc + part.at(n)
        return acc

    def window(self, n0: int, n1: int) -> list[QF]:
        return [self.at(n) for n in range(n0, n1 + 1)]


def simulate(num, den, x0: int, xs, n1: int) -> list[QF]:
    """Causal zero-state response to the input xs starting at x0, for x0..n1."""
    seq = ForwardSeq(poly_mul([QF.lift(c) for c in num], [QF(x) for x in xs]), [QF.lift(c) for c in den])
    return [seq.at(i) for i in range(n1 - x0 + 1)]


def convolve(xs, hs) -> list[Fraction]:
    """Exact convolution of rational sequences through one integer pass."""
    lx = math.lcm(*(Fraction(v).denominator for v in xs))
    lh = math.lcm(*(Fraction(v).denominator for v in hs))
    xi = [int(Fraction(v) * lx) for v in xs]
    hi = [int(Fraction(v) * lh) for v in hs]
    out = [0] * (len(xi) + len(hi) - 1)
    for i, a in enumerate(xi):
        if a:
            for j, b in enumerate(hi):
                out[i + j] += a * b
    scale = lx * lh
    return [Fraction(v, scale) for v in out]


class Fibonacci:
    """f(n) for any integer n from one growing list."""

    def __init__(self):
        self.fs = [0, 1]

    def __call__(self, n: int) -> int:
        m = abs(n)
        while len(self.fs) <= m:
            self.fs.append(self.fs[-1] + self.fs[-2])
        v = self.fs[m]
        return -v if n < 0 and m % 2 == 0 else v


PHI = QF(Fraction(1, 2), Fraction(1, 2), 5)


def ratio_first_index(n_max: int, tol: Fraction, fib: Fibonacci):
    """First n >= 1 with |f(n+1) - f(n)*phi| < tol*f(n), decided exactly."""
    for n in range(1, n_max + 1):
        a, b = fib(n), fib(n + 1)
        if abs(PHI * a - b) < tol * a:
            return n
    return None


# -- comparisons --------------------------------------------------------------------


def values_match(got, want, before=()) -> bool:
    """Compare one window; floats pass within REL_TOL of the recursion state size.

    `before` holds the exact samples just ahead of the window, so the state
    size is known from the window's first index on.
    """
    if len(got) != len(want):
        return False
    if not any(isinstance(g, float) for g in got):
        return all(from_program(g) == w for g, w in zip(got, want))
    recent = [abs(float(w)) for w in before][-STATE:]
    for g, w in zip(got, want):
        if isinstance(g, float):
            wf = float(w)
            recent.append(abs(wf))
            del recent[:-STATE]
            if not math.isfinite(g) or abs(g - wf) > REL_TOL * max(recent):
                return False
        elif from_program(g) != w:
            return False
    return True


def poles_match(got, want) -> bool:
    """Library poles against the oracle's (value, multiplicity) list."""
    if len(got) != len(want):
        return False
    remaining = list(want)
    for p in got:
        for i, (w, m) in enumerate(remaining):
            if p.multiplicity != m:
                continue
            if p.exact:
                hit = from_program(p.value) == w
            else:
                hit = abs(complex(p.value) - float(w)) <= 1e-8 * max(1.0, abs(float(w)))
            if hit:
                del remaining[i]
                break
        else:
            return False
    return True


def freq_point(num, den, omega: float) -> complex:
    """H(e^{j omega}) from float coefficients, by Horner in e^{-j omega}."""
    w = cmath.exp(-1j * omega)
    n = 0j
    for c in reversed(num):
        n = n * w + float(c)
    d = 0j
    for c in reversed(den):
        d = d * w + float(c)
    return n / d
