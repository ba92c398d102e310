"""Exact toolkit for the Fibonacci recursion viewed as a rational LTI system.

The sequence is the impulse response (shifted by one) of the two-pole system
1/(1 - z^-1 - z^-2).  Everything downstream of that observation is computed
exactly: the poles are the golden ratio and its conjugate in Q(sqrt(5)), the
regions of convergence are annuli with exact radii, and each admissible
region has its own inverse transform (causal, anti-causal or two-sided).

The package loads lazily: `import fiblti` loads none of its submodules, and
the first access to a public name (`fiblti.cascade`, `from fiblti import
Pole`) imports the one submodule that defines it, with the submodules it
needs.  `qfield` holds the field arithmetic; `fib` (the sequence engines and
identities) and `lti` (systems, poles, regions and inverse transforms) need
it, and `response` (time- and frequency-domain responses) needs `lti`.  The
command-line tool loads only the submodules each command runs: `gen` and
`props` load `fib`; `impz`, `analyze` and `cascade` load `lti`; `step`,
`minphase`, `respond` and `freqz` load `response` (see `fiblti.cli`).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "qfield": (
        "FieldMismatchError",
        "GOLDEN_RATIO",
        "GOLDEN_RATIO_CONJUGATE",
        "QuadRational",
        "SQRT5",
        "int_sqrt_exact",
        "sqrt_exact",
        "square_free_decompose",
    ),
    "fib": (
        "ClosedFormReport",
        "FibValue",
        "IdentityCheck",
        "IdentityReport",
        "appendix_forms_equal",
        "check_identities",
        "fib_binet_exact",
        "fib_extended",
        "fib_fast_doubling",
        "fib_recursive",
        "ratio_convergence",
    ),
    "lti": (
        "Classification",
        "InvalidRocError",
        "MalformedSystemError",
        "PartialFractionExpansion",
        "PartialFractionTerm",
        "Pole",
        "Polynomial",
        "RationalSystem",
        "Roc",
        "SequenceWindow",
        "accumulator_system",
        "cascade",
        "classify",
        "enumerate_rocs",
        "fibonacci_system",
        "find_poles",
        "inverse_z",
        "min_phase_system",
        "partial_fractions",
        "poly_mul",
        "reciprocal_system",
    ),
    "response": (
        "BandFeatures",
        "FrequencyGrid",
        "MagnitudeComparison",
        "Signal",
        "compare_magnitudes",
        "convolve",
        "fibonacci_band_features",
        "fibonacci_magnitude_law",
        "freq_response",
        "make_impulse",
        "make_step",
        "min_phase_impulse",
        "simulate_difference_equation",
        "step_response_closed_form",
    ),
}

#: Public name -> the submodule that defines it; a submodule maps to itself.
_SOURCE = {name: mod for mod, names in _EXPORTS.items() for name in (mod, *names)}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    """Import the submodule behind `name` on first access and keep the value."""
    try:
        mod = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = _import_module(f".{mod}", __name__)
    value = module if name == mod else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SOURCE))
