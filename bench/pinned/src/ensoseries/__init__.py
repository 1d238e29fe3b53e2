"""Semi-analytic series solvers for two nonlinear ENSO oscillator models.

Three methods (differential transform, Adomian decomposition, variational
iteration) over a shared truncated-power-series core, an exact closed-form
oracle for the delayed model, a classical RK4 reference integrator, and a CLI
that reproduces the bundled benchmark tables and error curves.
"""

from .adm import AdmState, adm_solve_coupled, adm_solve_delayed, adomian_cubic
from .dtm import DtmResult, assemble, solve_coupled, solve_delayed, transform_coupled, transform_delayed
from .errors import (
    DomainError,
    NumericError,
    ParameterRangeWarning,
    SeriesOverflowError,
    SingularModelError,
    UsageError,
)
from .models import (
    CoupledParams,
    DelayedParams,
    SolutionPair,
    coupled_rhs,
    delayed_rhs,
    reduced_delayed_coeffs,
)
from .oracle import Trajectory, exact_delayed, residual_check, rk4, rk4_values
from .reference import ReferenceTable, load_table
from .series import SeriesPoly
from .vim import VimState, initial_state, vim_solve, vim_step_coupled, vim_step_delayed

__version__ = "0.1.0"

__all__ = [
    "AdmState",
    "CoupledParams",
    "DelayedParams",
    "DomainError",
    "DtmResult",
    "NumericError",
    "ParameterRangeWarning",
    "ReferenceTable",
    "SeriesOverflowError",
    "SeriesPoly",
    "SingularModelError",
    "SolutionPair",
    "Trajectory",
    "UsageError",
    "VimState",
    "adm_solve_coupled",
    "adm_solve_delayed",
    "adomian_cubic",
    "assemble",
    "coupled_rhs",
    "delayed_rhs",
    "exact_delayed",
    "initial_state",
    "load_table",
    "reduced_delayed_coeffs",
    "residual_check",
    "rk4",
    "rk4_values",
    "solve_coupled",
    "solve_delayed",
    "transform_coupled",
    "transform_delayed",
    "vim_solve",
    "vim_step_coupled",
    "vim_step_delayed",
]
