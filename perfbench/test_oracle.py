"""Tests of the benchmark's own oracle and system family.

    python -m pytest perfbench -q

They run the library from ./src, so run them from the repository root.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fiblti as F  # noqa: E402
import oracle as O  # noqa: E402
import workloads as W  # noqa: E402
from family import PHI, PSI, family, named_systems  # noqa: E402


def cli(*argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "fiblti.cli", *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_oracle_rejects_split_triple_pole():
    # Hand-checked: 1/(1 - z^-1/2)^3 has h(n) = C(n+2, 2) / 2^n.
    want = [Fr(1), Fr(3, 2), Fr(3, 2), Fr(5, 4), Fr(15, 16)]
    assert W.Context().impulse(W.TRIPLE_POLE, 1).window(0, 4) == [O.QF(v) for v in want]
    check = W._cli_sequence_check(lambda: W.Context().impulse(W.TRIPLE_POLE, 1).window(0, 4), 0, 4)
    ok, exact, samples = check(cli("impz", "--den", W.TRIPLE_POLE_DEN, "--from", "0", "--to", "4"))
    assert not ok and not exact and samples == 5


def test_oracle_accepts_hand_checked_windows():
    fib = named_systems()[0]
    causal = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    anticausal = [55, -34, 21, -13, 8, -5, 3, -2, 1, -1, 0, 0]
    ctx = W.Context()
    assert ctx.impulse(fib, 2).window(0, 10) == [O.QF(v) for v in causal]
    assert ctx.impulse(fib, 0).window(-11, 0) == [O.QF(v) for v in anticausal]
    check = W._cli_sequence_check(lambda: [O.QF(v) for v in causal], 0, 10)
    assert check(cli("impz", "--den", "1,-1,-1", "--from", "0", "--to", "10")) == (True, True, 11)
    check = W._cli_sequence_check(lambda: [O.QF(v) for v in anticausal], -11, 0)
    assert check(cli("impz", "--den", "1,-1,-1", "--roc", "anticausal", "--from", "-11", "--to", "0"))[0]


def test_two_sided_oracle_solves_the_recursion_and_decays():
    fib = named_systems()[0]
    ys = W.Context().impulse(fib, 1).window(-40, 40)
    for i in range(2, len(ys)):
        n = i - 40
        assert ys[i] - ys[i - 1] - ys[i - 2] == (1 if n == 0 else 0)
    assert abs(float(ys[0])) < 1e-8 and abs(float(ys[-1])) < 1e-8
    # Hand-derived: y(n) = -psi^(n+1)/sqrt(5) for n >= 0, -phi^(n+1)/sqrt(5) for n < 0.
    sqrt5 = O.QF(0, 1, 5)
    assert ys[40] == -PSI / sqrt5 and ys[39] == -1 / sqrt5 and ys[38] == -(PHI ** -1) / sqrt5


def test_numeric_values_pass_only_within_tolerance():
    want = [O.QF(Fr(3, 2) ** n) for n in range(10)]
    close = [float(v) * (1 + 1e-12) for v in want]
    far = [float(v) for v in want]
    far[5] *= 1 + 1e-6
    assert O.values_match(close, want)
    assert not O.values_match(far, want)
    assert not O.values_match(close[:-1], want)


@pytest.mark.parametrize("seed", [1, 2])
def test_family_matches_the_library_systems(seed):
    for spec in family(seed, 0):
        system = spec.build(F)
        assert [O.from_program(c) for c in system.numerator.coeffs] == spec.num, spec.name
        assert [O.from_program(c) for c in system.denominator.coeffs] == spec.den, spec.name


def test_linear_recursion_matches_plain_field_arithmetic():
    d = [O.QF(1), O.QF(Fr(-1, 3), Fr(1, 2), 2), O.QF(Fr(2, 7))]
    n = [O.QF(Fr(1, 5)), O.QF(0, Fr(-3, 4), 2)]
    got = O.ForwardSeq(n, d)
    ys: list = []
    for k in range(30):
        acc = n[k] if k < len(n) else O.QF(0)
        for j in (1, 2):
            if k - j >= 0:
                acc = acc - d[j] * ys[k - j]
        ys.append(acc)
    assert [got.at(k) for k in range(30)] == ys


def test_known_defects_are_reported():
    found = W.known_defects(F)
    assert set(found) == {"triple_pole_split", "impz_disagrees_with_respond",
                          "numeric_overflow_near_1200", "numeric_equal_moduli_roc"}
    assert all(isinstance(v, bool) for v in found.values())
