"""Fractional derivatives as Fourier multipliers, with closed-form
oracles, a fractional momentum operator algebra, and invariant suites.

Layering: specfun -> grid -> spectral -> oracles -> quantum -> checks -> cli.
"""
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

__all__ = [
    "CSV_HEADER", "DegenerateInterval", "EvaluationFailure", "Grid",
    "GridMismatch", "NonPowerOfTwo", "SampledSignal", "Spectrum",
    "central_window", "make_grid", "sample",
    "ArgumentOutOfRange", "BParameterPole", "OrderTooLarge",
    "PoleAtNonPositiveInteger", "gamma", "hurwitz_zeta",
    "kummer_1f1", "kummer_1f1_series",
    "AlphaInForbiddenRange", "ImageCorrection", "MinusOneBranch", "NegativeAlpha", "Pairing",
    "duality_residual", "forward",
    "fractional_derivative", "fractional_momentum", "inverse", "ip_power",
    "order_continuity_gap", "p_power", "pairing_continuity_gap",
    "product_rule",
    "UNDEFINED", "EigenstateSpec", "FrequencyOffGrid", "NonPositiveK",
    "ToleranceNotReached", "eigenstate_signal", "exp_rule", "gaussian_deriv",
    "monomial_deriv", "quadrature_reference", "x2gaussian_deriv",
    "InsufficientDecay", "NotNormalized",
    "UncertaintyReport", "commutator_dx", "commutator_ladder",
    "expectation", "gaussian_state", "high_res_grid", "symmetry_residual",
    "uncertainty_bound", "uncertainty_check",
    "CheckResult", "SUITE_NAMES", "run_suite",
    "__version__",
]
