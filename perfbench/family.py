"""Seeded system families, and the helpers that stratify workload parameters.

A system is described twice: by how the library builds it (a named
constructor, a cascade of exact sections, or one raw expanded denominator)
and by its exact numerator and pole multiset for the oracle.  Every round
has a family of the same make-up, with catalog entries picked round-robin
(`Picker`).  `strata`, `cycle` and `spread` place window lengths, offsets and
sizes over their ranges on a schedule that cycles with the round.

The seed changes only what leaves the cost of the work alone: which systems
are mirrored to H(-z) (every pole negated, so the same moduli and operand
sizes), the jitter of each size inside a narrow sub-stratum, and the order of
the operations.  So every seed asks for the same amount of work, and two
seeds' figures differ by the host, not by the draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as Fr

from oracle import PHI, QF, distinct_moduli, poles_poly

# Conjugate pole pairs alpha +- beta*sqrt(d); each gives a rational section.
PAIRS = {
    5: [(Fr(1, 2), Fr(1, 2)), (Fr(-1, 2), Fr(1, 2)), (Fr(3, 2), Fr(1, 2)), (Fr(1, 4), Fr(1, 4))],
    2: [(Fr(1), Fr(1)), (Fr(1, 3), Fr(1, 3)), (Fr(1, 2), Fr(1, 2)), (Fr(-1, 2), Fr(1, 4))],
    3: [(Fr(1, 2), Fr(1, 4)), (Fr(-1, 4), Fr(1, 2)), (Fr(1), Fr(1, 2)), (Fr(-1, 3), Fr(1, 3))],
}
# Single irrational poles, each a first-order section with field coefficients.
SINGLES = {
    5: [(Fr(-1, 2), Fr(1, 2)), (Fr(3, 4), Fr(1, 4))],
    2: [(Fr(1, 2), Fr(1, 2)), (Fr(-1, 3), Fr(1, 3))],
    3: [(Fr(1, 2), Fr(1, 4)), (Fr(1, 3), Fr(-1, 3))],
}
RATIONAL_POLES = [Fr(1, 2), Fr(-1, 3), Fr(2, 3), Fr(-3, 4), Fr(3, 2), Fr(-2), Fr(5, 4), Fr(2), Fr(-1, 5), Fr(4, 3), Fr(1)]
NUMERATORS = [[Fr(1)], [Fr(1), Fr(1, 2)], [Fr(1), Fr(-1)], [Fr(2), Fr(0), Fr(-1, 3)], [Fr(1), Fr(2, 3), Fr(1, 4)]]


@dataclass
class SystemSpec:
    """One system of the family: how the library builds it, and its exact truth."""

    name: str
    kind: str  # "named", "cascade" or "raw"
    num: list  # exact numerator coefficients (QF), powers of z^-1
    poles: list  # [(QF pole, multiplicity)] for the oracle
    sections: list = field(default_factory=list)  # cascade: [(num, den)] rational/QF lists
    named: str = ""

    @property
    def den(self) -> list:
        return poles_poly(self.poles)

    @property
    def rational(self) -> bool:
        return all(not c.b for c in self.num + self.den)

    def moduli(self) -> int:
        return len(distinct_moduli(self.poles))

    def float_span(self) -> int:
        """Largest |n| at which a float pole sum stays finite, with margin."""
        mods = [float(m) for m in distinct_moduli(self.poles)]
        growth = max(max(mods), 1 / min(mods))
        return 300 if growth <= 1 else min(300, int(280 / math.log10(growth)))

    def build(self, F):
        """Construct the system with the library module F."""
        if self.kind == "named":
            if self.named == "fibonacci":
                return F.fibonacci_system()
            if self.named == "reciprocal":
                return F.reciprocal_system(F.fibonacci_system())
            if self.named == "min_phase":
                return F.min_phase_system()
            return F.cascade(F.fibonacci_system(), F.accumulator_system())
        if self.kind == "raw":
            return F.RationalSystem([lib_value(F, c) for c in self.num], [lib_value(F, c) for c in self.den])
        systems = [
            F.RationalSystem([lib_value(F, c) for c in num], [lib_value(F, c) for c in den])
            for num, den in self.sections
        ]
        out = systems[0]
        for s in systems[1:]:
            out = F.cascade(out, s)
        return out


def lib_value(F, c: QF):
    return F.QuadRational(c.a, c.b, c.d or 5) if c.b else c.a


PSI = QF(Fr(1, 2), Fr(-1, 2), 5)


def named_systems() -> list[SystemSpec]:
    inv_phi = PHI.inv()
    return [
        SystemSpec("fibonacci", "named", [QF(1)], [(PHI, 1), (PSI, 1)], named="fibonacci"),
        SystemSpec("reciprocal", "named", [QF(1)], [(PHI.inv(), 1), (PSI.inv(), 1)], named="reciprocal"),
        SystemSpec("min_phase", "named", [QF(0), PSI], [(inv_phi, 2)], named="min_phase"),
        SystemSpec("fib_accumulator", "named", [QF(1)], [(PHI, 1), (PSI, 1), (QF(1), 1)], named="accumulator"),
    ]


def _pair_section(alpha, beta, d):
    p, r = QF(alpha, beta, d), QF(alpha, -beta, d)
    return [p, r], [QF(1), QF(-2 * alpha), QF(alpha * alpha - d * beta * beta)]


class Picker:
    """Round-robin picks from each catalog, from a start that moves on each round.

    Over the rounds of one run every catalog entry comes up about equally often.
    """

    def __init__(self, r: int):
        self.r = r
        self.next: dict = {}

    def __call__(self, key: str, catalog: list, stride: int = 1):
        if key not in self.next:
            self.next[key] = self.r * stride
        i = self.next[key]
        self.next[key] = i + 1
        return catalog[i % len(catalog)]


def cascade_system(pick: Picker, index: int, n_sections: int, d: int) -> SystemSpec:
    sections, poles = [], {}
    kinds = ["pair", "rational", "double", "single", "repeat"]
    for i in range(n_sections):
        kind = kinds[(index + i) % len(kinds)] if i else "pair"
        if kind == "repeat" and sections:
            num, den, ps = pick("repeat", sections)
        elif kind == "pair":
            ps, den = _pair_section(*pick(f"pair{d}", PAIRS[d]), d)
            num = [QF(1)]
        elif kind == "single":
            p = QF(*pick(f"single{d}", SINGLES[d]), d)
            ps, den, num = [p], [QF(1), -p], [QF(1)]
        elif kind == "double":
            p = QF(pick("rational", RATIONAL_POLES, 3))
            ps, den, num = [p, p], [QF(1), -2 * p, p * p], [QF(1)]
        else:
            p = QF(pick("rational", RATIONAL_POLES, 3))
            ps, den, num = [p], [QF(1), -p], [QF(1)]
        sections.append((num, den, ps))
        for p in ps:
            key = next((k for k in poles if k == p), p)
            poles[key] = poles.get(key, 0) + 1
    top_num = [QF(c) for c in pick("numerator", NUMERATORS, 2)]
    lib_sections = [(top_num if i == 0 else num, den) for i, (num, den, _) in enumerate(sections)]
    return SystemSpec(
        f"cascade{index}_d{d}_{n_sections}s", "cascade", top_num, list(poles.items()), lib_sections
    )


def raw_system(pick: Picker, index: int, degree: int, d: int) -> SystemSpec:
    """A rational denominator of the given degree with distinct, well-separated real poles.

    Irrational poles come from one field d, so the oracle never mixes radicands.
    """
    poles: list = []
    misses = 0
    while len(poles) < degree:
        if degree - len(poles) >= 2 and len(poles) % 2 == index % 2 and misses < len(PAIRS[d]):
            cand = _pair_section(*pick(f"pair{d}", PAIRS[d]), d)[0]
        else:
            cand = [QF(pick("rational", RATIONAL_POLES, 3))]
        # Distinct moduli: equal-modulus numeric poles are a known defect of their own.
        mods = [abs(float(p)) for p in poles]
        if all(abs(abs(float(c)) - m) > 0.05 for c in cand for m in mods) and all(
            abs(float(c)) != 1.0 for c in cand
        ):
            poles.extend(cand)
            misses = 0
        else:
            misses += 1
    num = [QF(c) for c in pick("raw_numerator", NUMERATORS[:3])]
    return SystemSpec(f"raw{index}_deg{degree}", "raw", num, [(p, 1) for p in poles])


# Sizes of the classes of similar cost in `family`, in order: named, cascades
# of 2, 3 and 4 sections, raw.
CLASSES = (4, 2, 2, 2, 4)


def _alternate(coeffs: list) -> list:
    return [-c if k % 2 else c for k, c in enumerate(coeffs)]


def mirrored(spec: SystemSpec) -> SystemSpec:
    """H(-z): every pole negated, so the moduli, the regions and the operand sizes stay the same."""
    return SystemSpec(f"{spec.name}_mirror", spec.kind, _alternate(spec.num), [(-p, m) for p, m in spec.poles],
                      [(_alternate(num), _alternate(den)) for num, den in spec.sections])


def family(seed: int, r: int) -> list[SystemSpec]:
    """The systems of round r: the named four, six cascades and four raw denominators.

    Sizes are fixed by position and each field serves two cascades, so every
    round has the same make-up; the entries come from `Picker`, and the seed
    mirrors each cascade and raw system to H(-z) or not.
    """
    rng = random.Random(f"family-{seed}-{r}")
    pick = Picker(r)
    specs = []
    fields = [pick("field", sorted(PAIRS)) for _ in range(6)]
    for i, (n, d) in enumerate(zip([2, 2, 3, 3, 4, 4], fields)):
        specs.append(cascade_system(pick, i, n, d))
    for i, (deg, d) in enumerate(zip([3, 4, 5, 6], fields)):
        specs.append(raw_system(pick, i, deg, d))
    return named_systems() + [mirrored(s) if rng.random() < 0.5 else s for s in specs]


FINE = 4  # sub-strata per stratum in `strata`
FINE_ORDER = (1, 3, 0, 2)  # the sub-stratum of each pass; the first ones straddle the middle


def strata(rng: random.Random, count: int, lo: int, hi: int, r: int = 0, step: int = 1) -> list[int]:
    """`count` integers, one per equal-width stratum of [lo, hi], with seeded jitter.

    Item i of round r takes stratum (step*i + r) mod count, and inside it
    sub-stratum FINE_ORDER[(r // count) % FINE] of FINE.  The assignment
    cycles over the rounds the same way for every seed; only the position
    inside the sub-stratum, 1/(count*FINE) of the range, depends on the seed.
    """
    width = (hi - lo + 1) / (count * FINE)
    sub = FINE_ORDER[(r // count) % FINE]
    return [lo + int((((step * i + r) % count) * FINE + sub + rng.random()) * width) for i in range(count)]


def cycle(rng: random.Random, lo: int, hi: int, r: int, count: int = 4) -> int:
    """One value per round, from stratum r mod count of [lo, hi]."""
    return strata(rng, count, lo, hi, r)[0]


def spread(rng: random.Random, lo: int, hi: int, r: int, classes=CLASSES) -> list[int]:
    """One value per family member: each class spans [lo, hi] evenly, rotating with the round.

    Every round then holds the same mix of cheap and expensive operations,
    and the pairing of members with values is the same for every seed.
    """
    out: list[int] = []
    for m in classes:
        out += strata(rng, m, lo, hi, r)
    return out
