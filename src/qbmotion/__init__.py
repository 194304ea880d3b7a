"""Coefficients and consistency checks for zero-temperature quantum Brownian
motion with a Lorentz-Drude bath.

The package evaluates the four time-dependent coefficients of the exact
master equation of a damped harmonic oscillator from closed analytical
formulas, validates them against an independent integro-differential /
quadrature oracle, and audits physical consistency (critical coupling,
stationary positivity, uncertainty preservation) across three model
variants.
"""

__version__ = "0.1.0"

from .params import ModelParams, ModelVariant, normalize, denormalize
from .roots import RootTriple, solve_characteristic_cubic, gamma_critical
from .coeffs import (
    CoefficientSet,
    EvaluationContext,
    asymptotics,
    evaluation_context,
    short_time,
    weak_coeffs,
)
from .dynamics import (
    ConsistencyReport,
    GaussianState,
    consistency_report,
    ground_state,
    omega_obs,
    omega_obs_squared,
    propagate,
    stationary_Q,
)

__all__ = [
    "ModelParams",
    "ModelVariant",
    "normalize",
    "denormalize",
    "RootTriple",
    "solve_characteristic_cubic",
    "gamma_critical",
    "CoefficientSet",
    "EvaluationContext",
    "evaluation_context",
    "weak_coeffs",
    "short_time",
    "asymptotics",
    "GaussianState",
    "ground_state",
    "propagate",
    "omega_obs",
    "omega_obs_squared",
    "stationary_Q",
    "consistency_report",
    "ConsistencyReport",
    "__version__",
]
