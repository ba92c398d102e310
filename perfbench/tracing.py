"""Tracing from outside the library: spans on public functions, counters on QuadRational.

`Tracer.install(F)` rebinds every public function of `fiblti.fib`,
`fiblti.lti` and `fiblti.response`, and `fiblti.cli.main`, at every module
that binds the same object, so calls between library modules are seen too.
`RationalSystem.__init__` becomes the `lti.system_init` span.  Spans are kept
in memory as [id, parent, name, start, end, qfield_seconds, size] and turned
into per-layer self times at the end: a span's self time is its duration minus
its child spans and minus the QuadRational time spent directly inside it, so
the layers add up to the traced wall time.

QuadRational operators are far too many for spans; they get counters and one
aggregate timer that runs only around the outermost operator call.
"""

from __future__ import annotations

import importlib
import json
from fractions import Fraction
from time import perf_counter

LIB_MODULES = ("fiblti", "fiblti.fib", "fiblti.lti", "fiblti.response", "fiblti.cli")
SPAN_MODULES = ("fiblti.fib", "fiblti.lti", "fiblti.response")

# QuadRational methods by counter category.
QF_CATEGORIES = {
    "mul": ("__mul__", "__rmul__"),
    "add": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"),
    "div": ("__truediv__", "__rtruediv__", "inv"),
    "pow": ("__pow__",),
    "cmp": ("sign", "__lt__", "__le__", "__gt__", "__ge__", "__abs__"),
    "float": ("__float__", "__complex__"),
}

# Span names grouped into the reported layer metrics.
GROUPS = {
    "fib.binet": ("fib_binet_exact",),
    "fib.doubling": ("fib_fast_doubling", "fib_extended"),
    "fib.recursive": ("fib_recursive",),
    "fib.identities": ("check_identities", "ratio_convergence", "appendix_forms_equal"),
    "lti.system_init": ("RationalSystem.__init__",),
    "lti.find_poles": ("find_poles",),
    "lti.enumerate_rocs": ("enumerate_rocs",),
    "lti.partial_fractions": ("partial_fractions",),
    "lti.inverse_z": ("inverse_z",),
    "lti.cascade": ("cascade",),
    "lti.reciprocal_system": ("reciprocal_system",),
    "response.simulate": ("simulate_difference_equation",),
    "response.convolve": ("convolve",),
    "response.closed_form": ("step_response_closed_form", "min_phase_impulse", "respond_closed_form"),
    "response.freq_response": ("freq_response",),
    "cli.main": ("main",),
}


def _size(name: str, args, result) -> int:
    """Work size recorded with a span: samples, multiply-accumulates or grid points."""
    if name in ("inverse_z", "simulate_difference_equation"):
        return len(result)
    if name == "convolve":
        return len(args[0].values) * len(args[1].values)
    if name == "freq_response":
        return result.points
    if name == "find_poles":
        return 0 if all(p.exact for p in result) else 1
    return 0


def _bits(v) -> int:
    a, b = v.a, v.b
    return max(a.numerator.bit_length(), a.denominator.bit_length(),
               b.numerator.bit_length(), b.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.qf = {cat: 0 for cat in QF_CATEGORIES}
        self.qf.update(time=0.0, rational=0, ring=0, peak_bits=0)
        self._depth = 0
        self._undo: list = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        mods = [importlib.import_module(m) for m in LIB_MODULES]
        for modname in SPAN_MODULES:
            mod = importlib.import_module(modname)
            for name in mod.__all__:
                fn = getattr(mod, name)
                if callable(fn) and not isinstance(fn, type):
                    self._rebind(mods, name, fn, self._span(name, fn))
        cli = importlib.import_module("fiblti.cli")
        self._rebind(mods, "main", cli.main, self._span("main", cli.main))
        lti = importlib.import_module("fiblti.lti")
        init = lti.RationalSystem.__init__
        self._set(lti.RationalSystem, "__init__", self._span("RationalSystem.__init__", init))
        qr = importlib.import_module("fiblti.qfield").QuadRational
        for cat, names in QF_CATEGORIES.items():
            for name in names:
                self._set(qr, name, self._counted(cat, getattr(qr, name), qr))

    def uninstall(self) -> None:
        for obj, name, old in reversed(self._undo):
            setattr(obj, name, old)
        self._undo.clear()

    def _set(self, obj, name, new) -> None:
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, new)

    def _rebind(self, mods, name, fn, wrapped) -> None:
        for mod in mods:
            if getattr(mod, name, None) is fn:
                self._set(mod, name, wrapped)

    # -- wrappers ----------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1][0] if stack else -1, name, 0.0, 0.0, 0.0, 0]
            spans.append(rec)
            stack.append(rec)
            rec[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            rec[6] = _size(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, cat, fn, qr):
        qf, stack, tracer = self.qf, self.stack, self
        ring = cat in ("mul", "add")

        def wrapper(self_, *args):
            qf[cat] += 1
            if ring:
                qf["ring"] += 1
                other = args[0] if args else None
                if self_.b == 0 and (other is None or isinstance(other, (int, Fraction))
                                     or isinstance(other, qr) and other.b == 0):
                    qf["rational"] += 1
            if tracer._depth:
                result = fn(self_, *args)
            else:
                tracer._depth = 1
                t0 = perf_counter()
                try:
                    result = fn(self_, *args)
                finally:
                    dt = perf_counter() - t0
                    tracer._depth = 0
                    qf["time"] += dt
                    if stack:
                        stack[-1][5] += dt
            if isinstance(result, qr):
                bits = _bits(result)
                if bits > qf["peak_bits"]:
                    qf["peak_bits"] = bits
            return result

        return wrapper

    # -- results -----------------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name totals: calls, inclusive and self seconds, work size."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, t0, t1, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        names: dict = {}
        for sid, _, name, t0, t1, qft, size in self.spans:
            agg = names.setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0, "size": 0})
            agg["calls"] += 1
            agg["incl"] += t1 - t0
            agg["self"] += t1 - t0 - child[sid] - qft
            agg["size"] += size
        return {"spans": names, "qfield": dict(self.qf)}

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def merge(total: dict, part: dict) -> dict:
    """Add one summary into another (peak_bits takes the maximum)."""
    for name, agg in part["spans"].items():
        dst = total["spans"].setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0, "size": 0})
        for k, v in agg.items():
            dst[k] += v
    for k, v in part["qfield"].items():
        cur = total["qfield"].get(k, 0)
        total["qfield"][k] = max(cur, v) if k == "peak_bits" else cur + v
    return total


def empty_summary() -> dict:
    return {"spans": {}, "qfield": Tracer().qf}


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics (value, unit) from a merged summary."""
    spans, qf = summary["spans"], summary["qfield"]

    def group(key, field):
        return sum(spans.get(n, {}).get(field, 0) for n in GROUPS[key])

    m = {f"qfield.{cat}.calls": (qf[cat], "count") for cat in QF_CATEGORIES}
    m["qfield.self_s"] = (qf["time"], "s")
    m["qfield.rational_share"] = (qf["rational"] / qf["ring"] if qf["ring"] else 0.0, "ratio")
    m["qfield.peak_bits"] = (qf["peak_bits"], "bits")
    m["fib.calls"] = (sum(group(k, "calls") for k in GROUPS if k.startswith("fib.")), "count")
    for key in ("fib.binet", "fib.doubling", "fib.recursive", "fib.identities",
                "lti.system_init", "lti.find_poles", "lti.enumerate_rocs", "lti.partial_fractions",
                "lti.inverse_z", "lti.cascade", "lti.reciprocal_system",
                "response.simulate", "response.convolve", "response.closed_form", "response.freq_response"):
        m[f"{key}.self_s"] = (group(key, "self"), "s")
    poles = group("lti.find_poles", "calls")
    m["lti.find_poles.calls"] = (poles, "count")
    m["lti.find_poles.numeric_share"] = (group("lti.find_poles", "size") / poles if poles else 0.0, "ratio")
    m["lti.inverse_z.calls"] = (group("lti.inverse_z", "calls"), "count")
    samples = group("lti.inverse_z", "size")
    m["lti.inverse_z.us_per_sample"] = (1e6 * group("lti.inverse_z", "incl") / samples if samples else 0.0, "us")
    samples = group("response.simulate", "size")
    m["response.simulate.us_per_sample"] = (1e6 * group("response.simulate", "incl") / samples if samples else 0.0, "us")
    macs = group("response.convolve", "size")
    m["response.convolve.ns_per_mac"] = (1e9 * group("response.convolve", "incl") / macs if macs else 0.0, "ns")
    m["response.freq_response.points"] = (group("response.freq_response", "size"), "count")
    return m
