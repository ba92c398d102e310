"""Exact toolkit for the Fibonacci recursion viewed as a rational LTI system.

The sequence is the impulse response (shifted by one) of the two-pole system
1/(1 - z^-1 - z^-2).  Everything downstream of that observation is computed
exactly: the poles are the golden ratio and its conjugate in Q(sqrt(5)), the
regions of convergence are annuli with exact radii, and each admissible
region has its own inverse transform (causal, anti-causal or two-sided).
"""

from .qfield import (
    FieldMismatchError,
    GOLDEN_RATIO,
    GOLDEN_RATIO_CONJUGATE,
    QuadRational,
    SQRT5,
    int_sqrt_exact,
    sqrt_exact,
    square_free_decompose,
)
from .fib import (
    ClosedFormReport,
    FibValue,
    IdentityCheck,
    IdentityReport,
    appendix_forms_equal,
    check_identities,
    fib_binet_exact,
    fib_extended,
    fib_fast_doubling,
    fib_recursive,
    ratio_convergence,
)
from .lti import (
    Classification,
    InvalidRocError,
    MalformedSystemError,
    PartialFractionExpansion,
    PartialFractionTerm,
    Pole,
    Polynomial,
    RationalSystem,
    Roc,
    SequenceWindow,
    accumulator_system,
    cascade,
    classify,
    enumerate_rocs,
    fibonacci_system,
    find_poles,
    inverse_z,
    min_phase_system,
    partial_fractions,
    poly_mul,
    reciprocal_system,
)
from .response import (
    BandFeatures,
    FrequencyGrid,
    MagnitudeComparison,
    Signal,
    compare_magnitudes,
    convolve,
    fibonacci_band_features,
    fibonacci_magnitude_law,
    freq_response,
    make_impulse,
    make_step,
    min_phase_impulse,
    simulate_difference_equation,
    step_response_closed_form,
)

__version__ = "0.1.0"
