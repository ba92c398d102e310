"""Command-line front end.

Subcommands map onto the library one capability each: `gen` (sequence
engines), `analyze` (poles/regions/partial fractions as JSON), `impz`
(windowed inverse transform for a chosen region), `freqz` (CSV frequency
grid), `respond` (exact simulation of a signal file), `step` (closed-form
step response), `cascade` (series connection, optionally with its impulse
window), `props` (identity battery) and `minphase` (the decaying closed
form).  Output is deterministic: identical invocations produce identical
bytes.  Exit codes: 0 on success, 2 on usage errors, 1 on computation errors.

Each handler imports the library names it uses, so a command loads only the
modules it runs: `gen` and `props` load `qfield` and `fib`; `impz`,
`analyze` and `cascade` load `qfield` and `lti`; `step`, `minphase`,
`respond` and `freqz` load `response` on top of those two.  No command loads
numpy: `freqz` runs the pure-Python unit-circle pass of `response`.
Importing this module loads none of them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .lti import RationalSystem
    from .response import Signal

__all__ = ["main"]

_INEXACT_MARK = "# inexact: numeric pole fallback, values are floats"


def _coeff_list(text: str) -> list[Fraction]:
    try:
        return [Fraction(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad coefficient list {text!r}: {exc}")


def _positive_tol(text: str) -> str:
    """A rational tolerance > 0, kept as the user's text so output echoes it."""
    try:
        tol = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad tolerance {text!r}")
    if tol <= 0:
        raise argparse.ArgumentTypeError(f"tolerance must be > 0, got {text!r}")
    return text


def _int_at_least(low: int):
    """An argparse type: an integer >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _system(args) -> RationalSystem:
    from .lti import RationalSystem

    return RationalSystem(args.num, args.den)


def _read_signal(path: str) -> Signal:
    from .response import Signal

    entries: dict[int, Fraction] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'index,value'")
            try:
                n, value = int(parts[0]), Fraction(parts[1])
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if n in entries:
                raise ValueError(f"{path}:{lineno}: duplicate index {n}")
            entries[n] = value
    if not entries:
        raise ValueError(f"{path}: no samples found")
    n0, n1 = min(entries), max(entries)
    return Signal(n0, [entries.get(n, Fraction(0)) for n in range(n0, n1 + 1)])


def _pole_payload(pole) -> dict:
    z = pole.as_complex()
    return {
        "value": str(pole.value) if pole.exact else None,
        "re": z.real,
        "im": z.imag,
        "multiplicity": pole.multiplicity,
        "exact": pole.exact,
    }


def _radius_payload(r) -> "str | float | None":
    if r is None:
        return None
    return str(r) if not isinstance(r, float) else r


def _term_payload(term) -> dict:
    z = term.pole.as_complex()
    c = complex(term.coefficient)
    return {
        "pole": str(term.pole.value) if term.pole.exact else None,
        "pole_re": z.real,
        "pole_im": z.imag,
        "order": term.order,
        "coefficient": str(term.coefficient) if term.pole.exact else None,
        "coefficient_re": c.real,
        "coefficient_im": c.imag,
    }


def _sequence_text(win) -> str:
    lines = [] if win.exact else [_INEXACT_MARK]
    for n, v in win.items():
        lines.append(f"{n},{v!r}" if isinstance(v, float) else f"{n},{v}")
    return "\n".join(lines) + "\n"


def _sequence_json(win) -> str:
    values = [v if isinstance(v, float) else str(v) for v in win.values]
    payload = {"n0": win.n0, "n1": win.n1, "exact": win.exact, "values": values}
    return json.dumps(payload, indent=2) + "\n"


def _emit_sequence(win, fmt: str) -> str:
    if fmt == "json":
        return _sequence_json(win)
    return _sequence_text(win)


def _select_roc(rocs, selector: str, parser) -> "object":
    if selector == "causal":
        return rocs[-1]
    if selector == "anticausal":
        return rocs[0]
    if selector == "two-sided":
        middle = rocs[1:-1]
        if len(middle) == 1:
            return middle[0]
        if not middle:
            parser.error("system has no two-sided region of convergence")
        parser.error(
            f"{len(middle)} two-sided regions exist; select one with --roc INDEX"
        )
    try:
        index = int(selector)
    except ValueError:
        parser.error(f"--roc must be causal, anticausal, two-sided or an index, got {selector!r}")
    if not 0 <= index < len(rocs):
        parser.error(f"--roc index {index} out of range; system has {len(rocs)} regions")
    return rocs[index]


def _impulse_window(sys_, selector: str, start: int, stop: int, parser):
    from .lti import enumerate_rocs, inverse_z, partial_fractions

    if stop < start:
        parser.error(f"last index {stop} precedes first index {start}")
    expansion = partial_fractions(sys_)
    rocs = enumerate_rocs(sys_.poles())
    roc = _select_roc(rocs, selector, parser)
    return inverse_z(expansion, roc, start, stop)


# -- subcommand handlers -----------------------------------------------------


def _cmd_gen(args, parser) -> str:
    from .fib import fib_binet_exact, fib_fast_doubling, fib_recursive

    if args.start < 0 and args.engine != "binet":
        parser.error(f"engine {args.engine!r} needs --start >= 0 (binet accepts any index)")
    if args.engine == "recursive":
        values = [fv.value for fv in fib_recursive(args.start, args.count)]
    elif args.engine == "doubling":
        values = [fib_fast_doubling(n) for n in range(args.start, args.start + args.count)]
    else:
        values = [fib_binet_exact(n) for n in range(args.start, args.start + args.count)]
    if args.format == "json":
        return json.dumps({"start": args.start, "values": values}, indent=2) + "\n"
    if args.format == "csv":
        lines = [f"{args.start + i},{v}" for i, v in enumerate(values)]
    else:
        lines = [str(v) for v in values]
    return "\n".join(lines) + "\n"


def _cmd_analyze(args, parser) -> str:
    from .lti import enumerate_rocs, partial_fractions

    sys_ = _system(args)
    poles = sys_.poles()
    rocs = enumerate_rocs(poles)
    expansion = partial_fractions(sys_)
    payload = {
        "num": [str(c) for c in sys_.numerator.coeffs],
        "den": [str(c) for c in sys_.denominator.coeffs],
        "exact": expansion.exact,
        "poles": [_pole_payload(p) for p in poles],
        "rocs": [
            {
                "r_in": _radius_payload(r.r_in),
                "r_out": _radius_payload(r.r_out),
                "causal": r.causal,
                "stable": r.stable,
            }
            for r in rocs
        ],
        "terms": [_term_payload(t) for t in expansion.terms],
        "poly_part": [str(c) for c in expansion.poly_part.coeffs],
    }
    return json.dumps(payload, indent=2) + "\n"


def _cmd_impz(args, parser) -> str:
    win = _impulse_window(_system(args), args.roc, args.start, args.stop, parser)
    return _emit_sequence(win, args.format)


def _cmd_freqz(args, parser) -> str:
    from .response import _GRID_NOTE, _law, _unit_circle, fibonacci_band_features

    omegas, magnitude, phase = _unit_circle(_system(args), args.points)
    if args.features:
        law = fibonacci_band_features()
        idx = min(range(len(magnitude)), key=magnitude.__getitem__)
        payload = {
            "grid_min_omega": omegas[idx],
            "grid_min_magnitude": magnitude[idx],
            "law_min_omega": law.minimum_omega,
            "law_min_magnitude": law.minimum_magnitude,
            "law_half_power_omegas": list(law.half_power_omegas),
            "max_abs_error_vs_law": max(abs(m - _law(w)) for w, m in zip(omegas, magnitude))
            if all(map(math.isfinite, magnitude))
            else None,
            "note": _GRID_NOTE,
        }
        return json.dumps(payload, indent=2) + "\n"
    if args.format == "json":
        # Strict JSON has no Infinity/NaN tokens; singular points become null.
        payload = {
            "note": _GRID_NOTE,
            "omegas": omegas,
            "magnitude": [m if math.isfinite(m) else None for m in magnitude],
            "phase": [p if math.isfinite(p) else None for p in phase],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = ["omega,magnitude,phase"]
    for w, m, p in zip(omegas, magnitude, phase):
        lines.append(f"{w:.17g},{m:.17g},{p:.17g}")
    return "\n".join(lines) + "\n"


def _cmd_respond(args, parser) -> str:
    from .response import simulate_difference_equation

    signal = _read_signal(args.input)
    win = simulate_difference_equation(_system(args), signal, args.stop)
    return _emit_sequence(win, args.format)


def _cmd_step(args, parser) -> str:
    from .response import step_response_closed_form

    return _emit_sequence(step_response_closed_form(args.stop), args.format)


def _cmd_cascade(args, parser) -> str:
    from .lti import RationalSystem, cascade

    combined = cascade(
        RationalSystem(args.num_a, args.den_a),
        RationalSystem(args.num_b, args.den_b),
    )
    if args.impz is not None:
        start, stop = args.impz
        win = _impulse_window(combined, args.roc, start, stop, parser)
        return _emit_sequence(win, args.format)
    poles = combined.poles()
    payload = {
        "num": [str(c) for c in combined.numerator.coeffs],
        "den": [str(c) for c in combined.denominator.coeffs],
        "exact": all(p.exact for p in poles),
        "poles": [_pole_payload(p) for p in poles],
    }
    return json.dumps(payload, indent=2) + "\n"


def _cmd_props(args, parser) -> str:
    from .fib import appendix_forms_equal, check_identities, ratio_convergence

    report = check_identities(args.nmax)
    ratio_index = None
    if args.ratio_tol is not None:
        ratio_index = ratio_convergence(args.nmax, Fraction(args.ratio_tol))
    forms = appendix_forms_equal(args.forms) if args.forms is not None else None
    if args.format == "json":
        payload: dict = {"n_max": report.n_max, "identities": report.as_dict()}
        if args.ratio_tol is not None:
            payload["ratio_tol"] = args.ratio_tol
            payload["ratio_first_index"] = ratio_index
        if forms is not None:
            payload["closed_forms_n_max"] = forms.n_max
            payload["closed_forms"] = forms.as_dict()
        return json.dumps(payload, indent=2) + "\n"
    name_width = max(len("identity"), *(len(c.name) for c in report.checks))
    lines = [
        f"{'identity':<{name_width}}  {'checked':>7}  {'passed':>6}  {'first_failure':>13}"
    ]
    for c in report.checks:
        failure = "-" if c.first_failure is None else str(c.first_failure)
        lines.append(
            f"{c.name:<{name_width}}  {c.checked:>7}  {c.passed:>6}  {failure:>13}"
        )
    if args.ratio_tol is not None:
        where = "not reached" if ratio_index is None else f"n = {ratio_index}"
        lines.append(
            f"ratio convergence: first |f(n+1)/f(n) - phi| < {args.ratio_tol}: {where}"
        )
    if forms is not None:
        agree = ", ".join(
            f"{name}={'ok' if ok else 'MISMATCH'}" for name, ok in forms.agreements
        )
        lines.append(f"closed forms vs recursion on 0..{forms.n_max}: {agree}")
    return "\n".join(lines) + "\n"


def _cmd_minphase(args, parser) -> str:
    from .response import min_phase_impulse

    return _emit_sequence(min_phase_impulse(args.stop), args.format)


# -- parser ------------------------------------------------------------------


def _add_system_args(sub, den_default: "str | None" = None) -> None:
    sub.add_argument("--num", type=_coeff_list, default=[Fraction(1)],
                     help="numerator coefficients, comma-separated rationals (default 1)")
    if den_default is None:
        sub.add_argument("--den", type=_coeff_list, required=True,
                         help="denominator coefficients, comma-separated rationals")
    else:
        sub.add_argument("--den", type=_coeff_list, default=_coeff_list(den_default),
                         help=f"denominator coefficients (default {den_default})")


def _add_out_format(sub, formats=("text", "csv", "json"), default="text") -> None:
    sub.add_argument("--format", choices=formats, default=default,
                     help=f"output format (default {default})")
    sub.add_argument("--out", default=None, help="write output to this path instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiblti",
        description="Exact analysis of the Fibonacci recursion as a rational LTI system.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate the sequence with a chosen engine")
    gen.add_argument("--engine", choices=("recursive", "binet", "doubling"),
                     default="doubling", help="sequence engine (default doubling)")
    gen.add_argument("--count", type=_int_at_least(1), required=True, help="number of values")
    gen.add_argument("--start", type=int, default=0,
                     help="first index (default 0; may be negative for binet)")
    _add_out_format(gen)
    gen.set_defaults(handler=_cmd_gen, parser=gen)

    analyze = subs.add_parser("analyze", help="poles, regions of convergence and partial fractions as JSON")
    _add_system_args(analyze)
    analyze.add_argument("--out", default=None, help="write output to this path instead of stdout")
    analyze.set_defaults(handler=_cmd_analyze, parser=analyze)

    impz = subs.add_parser("impz", help="inverse transform window for one region of convergence")
    _add_system_args(impz)
    impz.add_argument("--roc", default="causal",
                      help="causal, anticausal, two-sided or a 0-based region index (default causal)")
    impz.add_argument("--from", dest="start", type=int, required=True, help="first index")
    impz.add_argument("--to", dest="stop", type=int, required=True, help="last index")
    _add_out_format(impz)
    impz.set_defaults(handler=_cmd_impz, parser=impz)

    freqz = subs.add_parser("freqz", help="frequency response grid on [0, pi]")
    _add_system_args(freqz)
    freqz.add_argument("--points", type=_int_at_least(2), default=512, help="grid size (default 512)")
    freqz.add_argument("--features", action="store_true",
                       help="emit band landmarks (grid minimum plus the two-pole law) as JSON")
    _add_out_format(freqz, formats=("csv", "json"), default="csv")
    freqz.set_defaults(handler=_cmd_freqz, parser=freqz)

    respond = subs.add_parser("respond", help="exact response to a signal file")
    _add_system_args(respond, den_default="1,-1,-1")
    respond.add_argument("--input", required=True,
                         help="signal file: 'index,value' lines, '#' comments allowed")
    respond.add_argument("--to", dest="stop", type=int, required=True, help="last output index")
    _add_out_format(respond)
    respond.set_defaults(handler=_cmd_respond, parser=respond)

    step = subs.add_parser("step", help="closed-form step response of the Fibonacci system")
    step.add_argument("--to", dest="stop", type=_int_at_least(0), required=True, help="last output index")
    _add_out_format(step)
    step.set_defaults(handler=_cmd_step, parser=step)

    casc = subs.add_parser("cascade", help="series connection of two systems")
    casc.add_argument("--num-a", type=_coeff_list, default=[Fraction(1)])
    casc.add_argument("--den-a", type=_coeff_list, required=True)
    casc.add_argument("--num-b", type=_coeff_list, default=[Fraction(1)])
    casc.add_argument("--den-b", type=_coeff_list, required=True)
    casc.add_argument("--impz", type=int, nargs=2, metavar=("FROM", "TO"), default=None,
                      help="also invert: emit the impulse window instead of the system")
    casc.add_argument("--roc", default="causal",
                      help="region selector when --impz is used (default causal)")
    _add_out_format(casc)
    casc.set_defaults(handler=_cmd_cascade, parser=casc)

    props = subs.add_parser("props", help="identity battery and convergence checks")
    props.add_argument("--nmax", type=_int_at_least(1), default=200, help="sweep bound (default 200)")
    props.add_argument("--ratio-tol", type=_positive_tol, default=None,
                       help="also report the first index with |f(n+1)/f(n) - phi| < TOL")
    props.add_argument("--forms", type=_int_at_least(0), default=None, metavar="NMAX",
                       help="also check the closed forms for f(n+1) up to NMAX")
    _add_out_format(props, formats=("text", "json"), default="text")
    props.set_defaults(handler=_cmd_props, parser=props)

    minphase = subs.add_parser("minphase", help="exact minimum-phase impulse response -n phi^-n")
    minphase.add_argument("--to", dest="stop", type=_int_at_least(0), required=True, help="last output index")
    _add_out_format(minphase)
    minphase.set_defaults(handler=_cmd_minphase, parser=minphase)

    return parser


def main(argv=None) -> int:
    # Exact values print in full, however many digits they have: the limit on
    # int-to-str conversion (0 is none) is lifted here and put back on the
    # way out, for in-process callers.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # Usage errors found after parsing go to the subcommand's own parser.
        text = args.handler(args, args.parser)
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is None:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
