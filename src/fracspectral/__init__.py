"""Fractional derivatives as Fourier multipliers, with closed-form
oracles, a fractional momentum operator algebra, and invariant suites.

Layering: specfun -> grid -> spectral -> oracles -> quantum -> checks -> cli.
"""
import types

from .grid import (
    CSV_HEADER,
    DegenerateInterval,
    EvaluationFailure,
    Grid,
    GridMismatch,
    NonPowerOfTwo,
    SampledSignal,
    Spectrum,
    central_window,
    make_grid,
    sample,
)
from .specfun import (
    ArgumentOutOfRange,
    BParameterPole,
    OrderTooLarge,
    PoleAtNonPositiveInteger,
    SeriesNotConverged,
    gamma,
    hurwitz_zeta,
    kummer_1f1,
    kummer_1f1_series,
)
from .spectral import (
    AlphaInForbiddenRange,
    ImageCorrection,
    MinusOneBranch,
    NegativeAlpha,
    Pairing,
    duality_residual,
    forward,
    fractional_derivative,
    fractional_momentum,
    inverse,
    ip_power,
    order_continuity_gap,
    p_power,
    pairing_continuity_gap,
    product_rule,
)
from .oracles import (
    UNDEFINED,
    EigenstateSpec,
    FrequencyOffGrid,
    NonPositiveK,
    ToleranceNotReached,
    eigenstate_signal,
    exp_rule,
    gaussian_deriv,
    monomial_deriv,
    quadrature_reference,
    x2gaussian_deriv,
)
from .quantum import (
    InsufficientDecay,
    NotNormalized,
    UncertaintyReport,
    commutator_dx,
    commutator_ladder,
    expectation,
    gaussian_state,
    high_res_grid,
    symmetry_residual,
    uncertainty_bound,
    uncertainty_check,
)
from .checks import CheckResult, SUITE_NAMES, run_suite

__version__ = "0.1.0"

# the public names are the ones imported above, each written once; the
# submodules that those imports bind are not among them
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
__all__.append("__version__")
