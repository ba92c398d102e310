"""Fixed-size layer probes: the rows of the Baseline table in ROADMAP.md.

Each probe times one call (or one loop over a range) without tracing and
checks its output against the oracle.  The sizes never change, so the values
can be read against the ROADMAP targets: inverse_z causal 0..2000 under
50 ms, convolve 301x301 under 100 ms, binet 0..2000 under 100 ms.
"""

from __future__ import annotations

import statistics
import subprocess
from time import perf_counter

import oracle as O
from family import PHI, PSI, named_systems


def _timed(fn):
    t0 = perf_counter()
    result = fn()
    return 1e3 * (perf_counter() - t0), result


def run_probes(F, ctx, cli) -> dict:
    """{name: (milliseconds, oracle_ok)} for every probe."""
    fib = ctx.fib
    fib_spec, _, min_phase, _ = named_systems()
    out = {}

    ms, got = _timed(lambda: [F.fib_binet_exact(n) for n in range(2001)])
    out["probe.binet_0_2000_ms"] = (ms, got == [fib(n) for n in range(2001)])
    ms, got = _timed(lambda: [F.fib_fast_doubling(n) for n in range(2001)])
    out["probe.doubling_0_2000_ms"] = (ms, got == [fib(n) for n in range(2001)])

    system = F.fibonacci_system()
    expansion = F.partial_fractions(system)
    rocs = F.enumerate_rocs(system.poles())
    ms, win = _timed(lambda: F.inverse_z(expansion, rocs[-1], 0, 2000))
    out["probe.inverse_z_causal_2000_ms"] = (ms, O.values_match(list(win.values), ctx.impulse(fib_spec, 2).window(0, 2000)))
    ms, win = _timed(lambda: F.inverse_z(expansion, rocs[0], -2000, 0))
    out["probe.inverse_z_anticausal_2000_ms"] = (ms, O.values_match(list(win.values), ctx.impulse(fib_spec, 0).window(-2000, 0)))
    ms, win = _timed(lambda: F.step_response_closed_form(2000))
    out["probe.step_closed_form_2000_ms"] = (ms, [O.from_program(v) for v in win.values] == [O.QF(fib(n + 3) - 1) for n in range(2001)])
    ms, win = _timed(lambda: F.simulate_difference_equation(system, F.make_impulse(), 2000))
    out["probe.simulate_impulse_2000_ms"] = (ms, O.values_match(list(win.values), ctx.impulse(fib_spec, 2).window(0, 2000)))

    ms, win = _timed(lambda: F.min_phase_impulse(500))
    out["probe.min_phase_closed_form_500_ms"] = (ms, O.values_match(list(win.values), ctx.impulse(min_phase, 1).window(0, 500)))
    mp = F.min_phase_system()
    ms, win = _timed(lambda: F.simulate_difference_equation(mp, F.make_impulse(), 500))
    out["probe.simulate_min_phase_500_ms"] = (ms, O.values_match(list(win.values), ctx.impulse(min_phase, 1).window(0, 500)))

    window = F.inverse_z(expansion, rocs[-1], 0, 300)
    ms, win = _timed(lambda: F.convolve(window, window))
    ints = [fib(n + 1) for n in range(301)]
    out["probe.convolve_301x301_ms"] = (ms, O.values_match(list(win.values), [O.QF(v) for v in O.convolve(ints, ints)]))

    h2 = F.cascade(system, system)
    h4 = F.cascade(h2, h2)
    exp4 = F.partial_fractions(h4)
    rocs4 = F.enumerate_rocs(h4.poles())
    ms, win = _timed(lambda: F.inverse_z(exp4, rocs4[-1], 0, 500))
    want = O.ImpulseOracle([O.QF(1)], [(PHI, 4), (PSI, 4)], 2).window(0, 500)
    out["probe.inverse_z_h4_500_ms"] = (ms, O.values_match(list(win.values), want))

    base = statistics.median(_wall(cli, ["-c", "pass"]) for _ in range(3))
    numpy = statistics.median(_wall(cli, ["-c", "import numpy"]) for _ in range(3))
    out["probe.import_numpy_ms"] = (1e3 * (numpy - base), True)

    dt, code, text = cli(["gen", "--count", "11"])
    out["probe.cli_gen_11_ms"] = (1e3 * dt, code == 0 and text.split() == [str(fib(n)) for n in range(11)])
    dt, code, text = cli(["impz", "--den", "1,-1,-1", "--from", "0", "--to", "2000"])
    lines = text.splitlines()
    out["probe.cli_impz_2000_ms"] = (1e3 * dt, code == 0 and lines == [f"{n},{fib(n + 1)}" for n in range(2001)])
    return out


def _wall(cli, argv) -> float:
    dt, code, _ = cli(argv, prefix=[])
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)
    return dt
