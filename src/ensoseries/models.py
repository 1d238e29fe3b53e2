"""The two nonlinear ENSO oscillator models and their parameter sets.

Coupled recharge oscillator (sea-surface temperature anomaly H, thermocline
depth anomaly h)::

    dH/dt = c*H + eta*h - eps*H**3
    dh/dt = -theta*H - gamma*h

Delayed oscillator, with the delay constant sigma folded into a constant
factor::

    (1 - beta*sigma) * dH/dt = (alpha - beta)*H - eps*H**3

Both start from anomaly 1 in the reproduction runs; the initial values are
kept as fields so the solvers stay general.
"""

from __future__ import annotations

import warnings
from math import isfinite

from ._frozen import Frozen
from .errors import ParameterRangeWarning, SingularModelError, UsageError, require_finite


def _warn_eps_range(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        warnings.warn(
            f"eps={eps} is outside the usual perturbation range (0, 1)",
            ParameterRangeWarning,
            stacklevel=3,
        )


class CoupledParams(Frozen):
    """Constants of the coupled oscillator; eps is the cubic perturbation."""

    __slots__ = ("c", "eta", "gamma", "theta", "eps", "H0", "h0")
    _defaults = {"H0": 1.0, "h0": 1.0}

    def __post_init__(self):
        for name in self._fields:
            object.__setattr__(self, name, require_finite(getattr(self, name), name))
        _warn_eps_range(self.eps)


class DelayedParams(Frozen):
    """Constants of the delayed oscillator.

    All four constants are physically positive; values outside that range are
    accepted with a warning so parameter sweeps can probe boundaries.
    ``beta*sigma == 1`` is rejected outright: the factor ``1 - beta*sigma``
    divides every coefficient of the model.  So is a set where that factor
    or the reduced ``a, b`` of :func:`reduced_delayed_coeffs` overflows: the
    model left would not be the one asked for (an infinite factor makes a and
    b zero).  ``a, b`` are kept in the private ``_reduced``.
    """

    # the RK4 oracle evaluates delayed_rhs four times a step, so a and b are computed once
    __slots__ = ("alpha", "beta", "sigma", "eps", "H0", "_reduced")
    _defaults = {"H0": 1.0}

    def __post_init__(self):
        for name in self._fields:
            object.__setattr__(self, name, require_finite(getattr(self, name), name))
        denom = 1.0 - self.beta * self.sigma
        if denom == 0.0:
            raise SingularModelError("beta*sigma == 1 makes the model singular")
        a, b = (self.alpha - self.beta) / denom, self.eps / denom
        if not (isfinite(denom) and isfinite(a) and isfinite(b)):
            raise SingularModelError(f"the reduced model overflows: 1 - beta*sigma = {denom!r}, (a, b) = ({a!r}, {b!r})")
        object.__setattr__(self, "_reduced", (a, b))
        if min(self.alpha, self.beta, self.sigma, self.eps) <= 0.0:
            warnings.warn(
                "alpha, beta, sigma and eps are physically positive",
                ParameterRangeWarning,
                stacklevel=3,
            )
        else:
            _warn_eps_range(self.eps)


class SolutionPair(Frozen):
    """Series solutions of the coupled model: H and h about the same point."""

    __slots__ = ("H", "h")

    def __post_init__(self):
        if self.H.cap != self.h.cap:
            raise UsageError("H and h series must share their cap")


def reduced_delayed_coeffs(p: DelayedParams) -> tuple[float, float]:
    """Normalize the delayed model to ``dH/dt = a*H - b*H**3``.

    Returns ``a = (alpha - beta) / (1 - beta*sigma)`` and
    ``b = eps / (1 - beta*sigma)``, computed once when ``p`` was built.
    """
    return p._reduced


def coupled_rhs(p: CoupledParams, H: float, h: float) -> tuple[float, float]:
    """Pointwise right-hand side of the coupled model."""
    # H*H*H rather than H**3: multiplication saturates to inf, pow raises
    return (p.c * H + p.eta * h - p.eps * (H * H * H), -p.theta * H - p.gamma * h)


def delayed_rhs(p: DelayedParams, H: float) -> float:
    """Pointwise right-hand side of the normalized delayed model."""
    a, b = p._reduced
    return a * H - b * (H * H * H)
