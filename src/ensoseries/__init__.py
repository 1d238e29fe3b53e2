"""Semi-analytic series solvers for two nonlinear ENSO oscillator models.

Three methods (differential transform, Adomian decomposition, variational
iteration) over a shared truncated-power-series core, an exact closed-form
oracle for the delayed model, a classical RK4 reference integrator, and a CLI
that reproduces the bundled benchmark tables and error curves.

The package root exports the calls of the README quick start, the types they
return and the error types; every other public name lives in its module.
"""

from .adm import adm_solve_coupled, adm_solve_delayed
from .dtm import solve_coupled, solve_delayed
from .errors import (
    DomainError,
    NumericError,
    ParameterRangeWarning,
    SeriesOverflowError,
    SingularModelError,
    UsageError,
)
from .models import CoupledParams, DelayedParams, SolutionPair
from .oracle import exact_delayed, residual_check, rk4_values
from .series import SeriesPoly
from .vim import vim_solve

__version__ = "0.1.0"

__all__ = [
    "CoupledParams",
    "DelayedParams",
    "DomainError",
    "NumericError",
    "ParameterRangeWarning",
    "SeriesOverflowError",
    "SeriesPoly",
    "SingularModelError",
    "SolutionPair",
    "UsageError",
    "adm_solve_coupled",
    "adm_solve_delayed",
    "exact_delayed",
    "residual_check",
    "rk4_values",
    "solve_coupled",
    "solve_delayed",
    "vim_solve",
]
