"""The three workloads as rounds of operations, and the known-defect reproducers.

An operation runs the program on generated inputs and hands the raw result to
its check, which consults only the oracle.  In-process operations call the
library through the module object `F` at call time, so a tracer that rebinds
module attributes sees every call.  CLI operations carry an argv; the runner
starts the subprocess and passes the captured stdout to the check.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as Fr
from typing import Callable

import oracle as O
from family import PAIRS, PHI, SystemSpec, _pair_section, cycle, named_systems, spread, strata


@dataclass
class Op:
    kind: str
    run: Callable | None  # in-process: () -> result
    check: Callable  # result -> (ok, exact, samples)
    argv: list | None = None  # CLI: arguments after `python -m fiblti.cli`


class Context:
    """Oracle caches shared by the operations of one run."""

    def __init__(self, F=None):
        self.F = F
        self.fib = O.Fibonacci()
        self._impulse: dict = {}

    def impulse(self, spec: SystemSpec, roc: int) -> O.ImpulseOracle:
        key = (id(spec), roc)
        if key not in self._impulse:
            self._impulse[key] = (spec, O.ImpulseOracle(spec.num, spec.poles, roc))
        return self._impulse[key][1]

    def new_round(self) -> None:
        """Drop the oracles of the previous round's systems."""
        self._impulse.clear()


def _roc_index(spec: SystemSpec, kind: str, r: int) -> int:
    """The region of convergence of a kind; two-sided regions take turns over the rounds."""
    k = spec.moduli()
    if kind == "causal":
        return k
    if kind == "anticausal":
        return 0
    return 1 + r % (k - 1)


def _roc_kinds(spec: SystemSpec) -> list[str]:
    return ["causal", "anticausal", "two-sided"] if spec.moduli() >= 2 else ["causal", "anticausal"]


def _window(kind: str, length: int, frac: float, span: int) -> tuple[int, int]:
    """A window of `length` samples placed by `frac` in [0, 1) inside +-span."""
    length = min(length, span)
    if kind == "causal":
        n0 = int(frac * (span - length + 1))
    elif kind == "anticausal":
        n0 = -int(frac * (span - length + 1)) - length + 1
    else:
        n0 = -span + int(frac * (2 * span - length + 1))
    return n0, n0 + length - 1


def _sequence_check(want_fn, n0: int):
    def check(win):
        want = want_fn()
        return win.n0 == n0 and O.values_match(list(win.values), want), win.exact, len(win)

    return check


# -- pole-sums ------------------------------------------------------------------


def pole_sums_round(ctx: Context, specs: list[SystemSpec], seed: int, r: int) -> list[Op]:
    F = ctx.F
    rng = random.Random(f"pole-sums-{seed}-{r}")
    lengths = spread(rng, 20, 200, r)
    fracs = [v / 1000 for v in spread(rng, 0, 999, r)]
    ops = []
    for i, spec in enumerate(specs):
        kinds = _roc_kinds(spec)
        kind = kinds[(i + r) % len(kinds)]
        roc = _roc_index(spec, kind, r)
        span = spec.float_span() if spec.kind == "raw" else 2000
        n0, n1 = _window(kind, lengths[i], fracs[i], span)
        ops.append(Op("inversion", _inversion_run(F, spec, roc, n0, n1),
                      _inversion_check(ctx, spec, roc, n0, n1)))
    steps = strata(rng, 2, 20, 300, r)
    mins = strata(rng, 2, 20, 300, r)
    binet_lengths = strata(rng, 2, 20, 200, r)
    binet_starts = strata(rng, 2, -2000, 1800, r // 2)
    min_phase = named_systems()[2]
    for n1 in steps:
        ops.append(Op("step", lambda n1=n1: F.step_response_closed_form(n1),
                      _sequence_check(lambda n1=n1: [O.QF(ctx.fib(n + 3) - 1) for n in range(n1 + 1)], 0)))
    for n1 in mins:
        ops.append(Op("min_phase", lambda n1=n1: F.min_phase_impulse(n1),
                      _sequence_check(lambda n1=n1: ctx.impulse(min_phase, 1).window(0, n1), 0)))
    for start, length in zip(binet_starts, binet_lengths):
        ops.append(Op("binet", lambda s=start, c=length: [F.fib_binet_exact(k) for k in range(s, s + c)],
                      lambda got, s=start, c=length: (got == [ctx.fib(k) for k in range(s, s + c)], True, len(got))))
    rng.shuffle(ops)
    return ops


def _inversion_run(F, spec, roc, n0, n1):
    def run():
        system = spec.build(F)
        poles = system.poles()
        rocs = F.enumerate_rocs(poles)
        expansion = F.partial_fractions(system)
        return poles, F.inverse_z(expansion, rocs[roc], n0, n1)

    return run


def _inversion_check(ctx, spec, roc, n0, n1):
    def check(result):
        poles, win = result
        want = ctx.impulse(spec, roc).window(n0 - O.STATE, n1)
        ok = O.poles_match(poles, spec.poles) and win.n0 == n0 and O.values_match(
            list(win.values), want[O.STATE:], want[:O.STATE])
        return ok, win.exact, len(win)

    return check


# -- recursions -------------------------------------------------------------------


def _small_fraction(rng: random.Random) -> Fr:
    return Fr(rng.randint(-9, 9) or 1, rng.randint(1, 6))


def _input_signal(rng: random.Random, kind: str, length: int) -> tuple[int, list]:
    if kind == "impulse":
        return 0, [Fr(1)]
    if kind == "step":
        return 0, [Fr(1)] * length
    x0 = rng.randint(-20, 20)
    xs = [_small_fraction(rng) if rng.random() < 0.15 else Fr(0) for _ in range(rng.randint(5, 40))]
    xs[0] = xs[0] or Fr(1)
    return x0, xs


CONVOLVE_MACS = 15000  # len(x) * len(h) of every round's convolution; both lengths in 50..300


def recursions_round(ctx: Context, specs, systems, seed: int, r: int) -> list[Op]:
    F = ctx.F
    rng = random.Random(f"recursions-{seed}-{r}")
    lengths = spread(rng, 50, 300, r)
    ops = []
    for i, (spec, system) in enumerate(zip(specs, systems)):
        kind = ("impulse", "step", "sparse")[(i + r) % 3]
        x0, xs = _input_signal(rng, kind, lengths[i])
        n1 = x0 + lengths[i] - 1
        ops.append(Op(
            "simulate",
            lambda s=system, x0=x0, xs=xs, n1=n1: F.simulate_difference_equation(s, F.Signal(x0, xs), n1),
            _sequence_check(lambda spec=spec, x0=x0, xs=xs, n1=n1: O.simulate(spec.num, spec.den, x0, xs, n1), x0),
        ))
    # One convolution per round: at 30-40 us per multiply-accumulate it costs
    # about as much as the rest of the round.  Its multiply-accumulate count,
    # the cost, is the same in every round, so a run's total does not hang on
    # how many rounds it completes; the seed picks the two lengths and the values.
    lx = rng.randint(CONVOLVE_MACS // 300, 300)
    lh = CONVOLVE_MACS // lx
    x0, h0 = rng.randint(-50, 50), rng.randint(-50, 50)
    xs = [_small_fraction(rng) for _ in range(lx)]
    hs = [rng.randint(-10**6, 10**6) for _ in range(lh)]
    # Every other pair of rounds drives a Signal instead of a SequenceWindow.
    x_type = F.Signal if r // 2 % 2 else F.SequenceWindow
    ops.append(Op(
        "convolve",
        lambda: F.convolve(x_type(x0, xs), F.SequenceWindow(h0, hs)),
        _sequence_check(lambda: [O.QF(v) for v in O.convolve(xs, hs)], x0 + h0),
    ))
    counts = strata(rng, 4, 50, 300, r)
    starts = strata(rng, 4, 0, 5000, r, 3)
    for j in range(4):
        s, c = starts[j], counts[j]
        if j % 2:
            run = lambda s=s, c=c: [(k, F.fib_fast_doubling(k)) for k in range(s, s + c)]
        else:
            run = lambda s=s, c=c: [(v.index, v.value) for v in F.fib_recursive(s, c)]
        ops.append(Op("fib", run, lambda got, s=s, c=c: (
            got == [(k, ctx.fib(k)) for k in range(s, s + c)], True, len(got))))
    for n_max in strata(rng, 2, 50, 300, r):
        ops.append(Op("identities", lambda m=n_max: F.check_identities(m), _identities_check(n_max)))
    tols = [Fr(1, 10**3), Fr(1, 10**6), Fr(1, 10**9), Fr(1, 10**12)]
    for n_max in strata(rng, 2, 100, 1000, r):
        tol = rng.choice(tols)
        ops.append(Op("ratio", lambda m=n_max, t=tol: F.ratio_convergence(m, t),
                      lambda got, m=n_max, t=tol: _ratio_check(ctx, got, m, t)))
    rng.shuffle(ops)
    return ops


IDENTITY_FAMILIES = ("coprime_consecutive", "perfect_square_form", "golden_rounding", "index_doubling")


def _identities_check(n_max: int):
    # Each family is a theorem for every n >= 1, so the truth is "all pass".
    def check(report):
        ok = report.n_max == n_max and tuple(c.name for c in report.checks) == IDENTITY_FAMILIES and all(
            c.checked == n_max and c.passed == n_max and c.first_failure is None for c in report.checks
        )
        return ok, True, 4 * n_max

    return check


def _ratio_check(ctx, got, n_max, tol):
    want = O.ratio_first_index(n_max, tol, ctx.fib)
    return got == want, True, want or n_max


# -- cli-oneshot --------------------------------------------------------------------


def _coeffs(values) -> str:
    return ",".join(str(v.a) for v in values)


def cli_specs(specs: list[SystemSpec]) -> list[SystemSpec]:
    """Systems the CLI can state: the rational named ones, the raw ones and single sections.

    Cascades are left out here because their expanded denominators may put
    distinct poles on one circle or repeat a pole, which the numeric path
    cannot handle (see `known_defects`); `cascade --impz` covers them exactly.
    """
    out = [s for s in specs if s.kind == "raw" or s.kind == "named" and s.rational]
    for d, pairs in sorted(PAIRS.items()):
        poles, den = _pair_section(*pairs[0], d)
        out.append(SystemSpec(f"pair_d{d}", "raw", [O.QF(1)], [(p, 1) for p in poles]))
    out.append(SystemSpec("double_half", "raw", [O.QF(1), O.QF(Fr(1, 2))], [(O.QF(Fr(-1, 2)), 2)]))
    return out


def _parse_lines(text: str):
    """index,value lines of a sequence output; returns (pairs, exact)."""
    exact = True
    pairs = []
    for line in text.splitlines():
        if line.startswith("#"):
            exact = exact and "inexact" not in line
            continue
        idx, val = line.split(",", 1)
        pairs.append((int(idx), O.parse_value(val)))
    return pairs, exact


def _cli_sequence_check(want_fn, n0: int, n1: int, history: int = 0):
    """Check index,value lines; want_fn() may return `history` extra leading samples."""

    def check(text):
        pairs, exact = _parse_lines(text)
        idx = [i for i, _ in pairs]
        vals = [v for _, v in pairs]
        want = want_fn()
        ok = idx == list(range(n0, n1 + 1)) and O.values_match(vals, want[history:], want[:history])
        return ok, exact and not any(isinstance(v, float) for v in vals), len(vals)

    return check


def cli_round(ctx: Context, specs, seed: int, r: int, tmpdir: str) -> list[Op]:
    rng = random.Random(f"cli-oneshot-{seed}-{r}")
    systems = cli_specs(specs)
    # Which system serves which command rotates with the round, the same way for every seed.
    pick = systems[r % len(systems):] + systems[:r % len(systems)]
    # Degree <= 2 denominators take the exact path, higher ones the numeric
    # fallback; every two rounds use each path equally often.
    exact = [s for s in pick if len(s.den) <= 3]
    numeric = [s for s in pick if len(s.den) > 3]
    ops = []
    # gen: two engines per round, all three output formats over the rounds.
    engines = ["recursive", "binet", "doubling"]
    for j in range(2):
        engine = engines[(r * 2 + j) % 3]
        fmt = ("text", "csv", "json")[(r + j) % 3]
        start = cycle(rng, -500 if engine == "binet" else 0, 2000, r + j)
        count = cycle(rng, 5, 60, r + 2 * j)
        ops.append(Op("gen", None, _gen_check(ctx, start, count, fmt),
                      ["gen", "--engine", engine, "--start", str(start), "--count", str(count), "--format", fmt]))
    # impz: one causal, one anticausal, one two-sided (or index) window.
    for j, kind in enumerate(("causal", "anticausal", "two-sided")):
        path = (numeric, exact, numeric if r % 2 else exact)[j]
        spec = next(s for s in path if kind in _roc_kinds(s))
        roc = _roc_index(spec, kind, r)
        span = spec.float_span() if len(spec.den) > 3 else 500
        n0, n1 = _window(kind, cycle(rng, 10, 60, r + j), cycle(rng, 0, 999, r + 2 * j) / 1000, span)
        selector = kind if kind != "two-sided" or spec.moduli() == 2 else str(roc)
        ops.append(Op("impz", None,
                      _cli_sequence_check(lambda s=spec, r_=roc, a=n0, b=n1: ctx.impulse(s, r_).window(a - O.STATE, b),
                                          n0, n1, O.STATE),
                      ["impz", "--num", _coeffs(spec.num), "--den", _coeffs(spec.den), "--roc", selector,
                       "--from", str(n0), "--to", str(n1)]))
    spec = (exact if r % 2 else numeric)[0]
    ops.append(Op("analyze", None, _analyze_check(spec),
                  ["analyze", "--num", _coeffs(spec.num), "--den", _coeffs(spec.den)]))
    smooth = [s for s in pick if all(abs(float(p)) != 1.0 for p, _ in s.poles)]
    for j, points in enumerate(strata(rng, 2, 513, 4097, r)):
        spec = smooth[j % len(smooth)] if j == 0 else named_systems()[0]
        argv = ["freqz", "--num", _coeffs(spec.num), "--den", _coeffs(spec.den), "--points", str(points)]
        ops.append(Op("freqz", None, _freqz_check(spec, points, features=j == 1), argv + ["--features"] * j))
    n1 = cycle(rng, 10, 300, r)
    ops.append(Op("step", None, _cli_sequence_check(lambda n1=n1: [O.QF(ctx.fib(n + 3) - 1) for n in range(n1 + 1)], 0, n1),
                  ["step", "--to", str(n1)]))
    n1 = cycle(rng, 10, 200, r + 1)
    min_phase = named_systems()[2]
    ops.append(Op("minphase", None, _cli_sequence_check(lambda n1=n1: ctx.impulse(min_phase, 1).window(0, n1), 0, n1),
                  ["minphase", "--to", str(n1)]))
    ops.append(_cascade_op(ctx, rng, systems, r))
    nmax, forms = cycle(rng, 50, 400, r + 2), cycle(rng, 10, 60, r + 3)
    tol = rng.choice(["1e-3", "1e-6", "1/1000000000"])
    ops.append(Op("props", None, _props_check(ctx, nmax, tol, forms),
                  ["props", "--nmax", str(nmax), "--ratio-tol", tol, "--forms", str(forms)]))
    ops.append(_respond_op(ctx, rng, pick, tmpdir, f"signal-{seed}-{r}.txt", r))
    rng.shuffle(ops)
    return ops


def _gen_check(ctx, start, count, fmt):
    def check(text):
        if fmt == "json":
            payload = json.loads(text)
            values = payload["values"]
            ok_start = payload["start"] == start
        elif fmt == "csv":
            rows = [line.split(",") for line in text.splitlines()]
            values = [int(v) for _, v in rows]
            ok_start = [int(i) for i, _ in rows] == list(range(start, start + len(rows)))
        else:
            values = [int(v) for v in text.splitlines()]
            ok_start = True
        want = [ctx.fib(n) for n in range(start, start + count)]
        return ok_start and values == want, True, len(values)

    return check


def _analyze_check(spec: SystemSpec):
    def check(text):
        payload = json.loads(text)
        mods = O.distinct_moduli(spec.poles)
        rocs = payload["rocs"]
        ok = len(rocs) == len(mods) + 1
        bounds = [0.0] + [float(m) for m in mods] + [math.inf]
        for i, roc in enumerate(rocs if ok else []):
            ok = ok and roc["causal"] == (i == len(mods)) and roc["stable"] == (bounds[i] < 1 < bounds[i + 1])
        got_poles = [(complex(p["re"], p["im"]), p["multiplicity"]) for p in payload["poles"]]
        ok = ok and sorted(m for _, m in got_poles) == sorted(m for _, m in spec.poles)
        for p, m in spec.poles:
            ok = ok and any(abs(z - float(p)) <= 1e-9 * max(1, abs(float(p))) and gm == m for z, gm in got_poles)
        # The expansion must reproduce N/D at points off the poles.
        for w in (Fr(1, 7), Fr(-2, 9)):
            want = _poly_at(spec.num, w) / _poly_at(spec.den, w)
            got = _expansion_at(payload, w)
            ok = ok and abs(got - float(want)) <= 1e-9 * max(1.0, abs(float(want)))
        return ok, bool(payload["exact"]), len(payload["poles"]) + len(payload["terms"])

    return check


def _poly_at(coeffs, w):
    acc = O.QF(0)
    for c in reversed(coeffs):
        acc = acc * w + c
    return acc


def _expansion_at(payload, w) -> complex:
    wf = float(w)
    acc = sum(float(O.parse_value(c)) * wf**k for k, c in enumerate(payload["poly_part"]))
    for t in payload["terms"]:
        pole = complex(t["pole_re"], t["pole_im"])
        coef = complex(t["coefficient_re"], t["coefficient_im"])
        acc += coef / (1 - pole * wf) ** t["order"]
    return complex(acc)


def _freqz_check(spec: SystemSpec, points: int, features: bool):
    num = [float(c) for c in spec.num]
    den = [float(c) for c in spec.den]
    omegas = [math.pi * i / (points - 1) for i in range(points)]

    def check(text):
        mags = [abs(O.freq_point(num, den, w)) for w in omegas]
        if features:
            payload = json.loads(text)
            low = min(mags)
            law = [1 / math.sqrt(1 + 4 * math.sin(w) ** 2) for w in omegas]
            err = max(abs(m - lw) for m, lw in zip(mags, law))
            # Symmetric grids can tie at the minimum, so check the value, not the index.
            at = abs(O.freq_point(num, den, payload["grid_min_omega"]))
            ok = (
                abs(payload["grid_min_magnitude"] - low) <= 1e-9 * low
                and abs(at - low) <= 1e-9 * low
                and payload["law_min_omega"] == math.pi / 2
                and abs(payload["law_min_magnitude"] - 1 / math.sqrt(5)) <= 1e-15
                and payload["law_half_power_omegas"] == [math.pi / 6, 5 * math.pi / 6]
                and abs(payload["max_abs_error_vs_law"] - err) <= 1e-9
            )
            return ok, True, points
        lines = text.splitlines()
        ok = lines[0] == "omega,magnitude,phase" and len(lines) == points + 1
        for line, w in zip(lines[1:] if ok else [], omegas):
            wo, mo, ph = (float(v) for v in line.split(","))
            h = O.freq_point(num, den, w)
            err = abs(mo * complex(math.cos(ph), math.sin(ph)) - h)
            ok = ok and abs(wo - w) <= 1e-12 and err <= 1e-9 * abs(h) + 1e-12
        return ok, True, len(lines) - 1

    return check


def _cascade_op(ctx, rng, systems, r: int) -> Op:
    small = [s for s in systems if len(s.den) <= 3]
    a = small[r % len(small)]
    fields = {p.d for p, _ in a.poles} - {0}
    partners = [s for s in small if not ({p.d for p, _ in s.poles} - {0} - fields)]
    b = partners[r // len(small) % len(partners)]
    merged: dict = {}
    for p, m in a.poles + b.poles:
        key = next((k for k in merged if k == p), p)
        merged[key] = merged.get(key, 0) + m
    spec = SystemSpec(f"{a.name}*{b.name}", "raw", O.poly_mul(a.num, b.num), list(merged.items()))
    kinds = _roc_kinds(spec)
    kind = kinds[r % len(kinds)]
    roc = _roc_index(spec, kind, r)
    # Two exact sections of one field keep their factored poles, so the path is exact.
    n0, n1 = _window(kind, cycle(rng, 10, 60, r), cycle(rng, 0, 999, r + 1) / 1000, 300)
    argv = ["cascade", "--num-a", _coeffs(a.num), "--den-a", _coeffs(a.den), "--num-b", _coeffs(b.num),
            "--den-b", _coeffs(b.den), "--impz", str(n0), str(n1), "--roc", str(roc)]
    return Op("cascade", None,
              _cli_sequence_check(lambda: ctx.impulse(spec, roc).window(n0 - O.STATE, n1), n0, n1, O.STATE), argv)


def _props_check(ctx, nmax, tol, forms):
    def check(text):
        lines = text.splitlines()
        rows = [line.split() for line in lines[1:5]]
        ok = [r[0] for r in rows] == list(IDENTITY_FAMILIES) and all(
            r[1:] == [str(nmax), str(nmax), "-"] for r in rows
        )
        want = O.ratio_first_index(nmax, Fr(tol), ctx.fib)
        where = "not reached" if want is None else f"n = {want}"
        ok = ok and lines[5].endswith(f": {where}")
        ok = ok and lines[6].startswith(f"closed forms vs recursion on 0..{forms}:") and "MISMATCH" not in lines[6]
        ok = ok and lines[6].count("=ok") == 4 and len(lines) == 7
        return ok, True, 4 * nmax

    return check


def _respond_op(ctx, rng, systems, tmpdir, name, r: int) -> Op:
    fits = [s for s in systems if len(s.den) <= 4]
    spec = fits[r % len(fits)]
    x0, xs = _input_signal(rng, "sparse", 0)
    n1 = x0 + cycle(rng, 20, 200, r)
    path = f"{tmpdir}/{name}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# generated input\n")
        for i, v in enumerate(xs):
            if v:
                fh.write(f"{x0 + i},{v}\n")
    argv = ["respond", "--num", _coeffs(spec.num), "--den", _coeffs(spec.den), "--input", path, "--to", str(n1)]
    return Op("respond", None,
              _cli_sequence_check(lambda: O.simulate(spec.num, spec.den, x0, xs, n1), x0, n1), argv)


# -- known defects -----------------------------------------------------------------

TRIPLE_POLE_DEN = "1,-3/2,3/4,-1/8"
TRIPLE_POLE = SystemSpec("triple_half", "raw", [O.QF(1)], [(O.QF(Fr(1, 2)), 3)])
TRIBONACCI_DEN = "1,-1,-1,-1"
# (1 - w - w^2)(1 + w - w^2): poles +-phi and +-1/phi, two per circle.
EQUAL_MODULI_DEN = "1,0,-3,0,1"
EQUAL_MODULI = SystemSpec("plus_minus_phi", "raw", [O.QF(1)],
                          [(p, 1) for p in (PHI, -PHI, PHI.inv(), -PHI.inv())])


def _den(text: str) -> list:
    return [Fr(c) for c in text.split(",")]


def _impulse_window(F, den: str, roc: int, n0: int, n1: int) -> list:
    system = F.RationalSystem([1], _den(den))
    rocs = F.enumerate_rocs(system.poles())
    return list(F.inverse_z(F.partial_fractions(system), rocs[roc], n0, n1).values)


def _still_shows(check) -> bool:
    """A reproducer that raises, whatever the exception, still shows a defect."""
    try:
        return check()
    except Exception:
        return True


def known_defects(F) -> dict:
    """Run each reproducer through the library; True means the defect still shows."""
    ctx = Context(F)

    def triple_pole_split():
        want = ctx.impulse(TRIPLE_POLE, 1).window(0, 4)
        return not O.values_match(_impulse_window(F, TRIPLE_POLE_DEN, -1, 0, 4), want)

    def impz_disagrees_with_respond():
        system = F.RationalSystem([1], _den(TRIPLE_POLE_DEN))
        respond = F.simulate_difference_equation(system, F.make_impulse(), 4).values
        impz = _impulse_window(F, TRIPLE_POLE_DEN, -1, 0, 4)
        return [O.from_program(v) for v in impz] != [O.from_program(v) for v in respond]

    def numeric_overflow_near_1200():
        want = O.simulate([1], _den(TRIBONACCI_DEN), 0, [Fr(1)], 1210)
        got = _impulse_window(F, TRIBONACCI_DEN, -1, 1190, 1210)
        return not O.values_match(got, want[1190:], want[1190 - O.STATE:1190])

    def numeric_equal_moduli_roc():
        want = ctx.impulse(EQUAL_MODULI, 1).window(-3 - O.STATE, 3)
        return not O.values_match(_impulse_window(F, EQUAL_MODULI_DEN, 1, -3, 3), want[O.STATE:], want[:O.STATE])

    checks = (triple_pole_split, impz_disagrees_with_respond, numeric_overflow_near_1200, numeric_equal_moduli_roc)
    return {check.__name__: _still_shows(check) for check in checks}
