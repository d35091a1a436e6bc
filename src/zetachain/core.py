"""Parameter space, logarithmic spectrum and thermal-phase amplitudes.

Everything downstream (synthesis, evolution, hardware export) is a pure
function of the quadruple (n_levels, a, sigma, omega) defined here.
Chain entries are in units of hbar*omega with hbar = 1; the evolution
runs under omega*H, so time t samples s = sigma + i*omega*t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = [
    "SimulationParams",
    "Spectrum",
    "AmplitudeVector",
    "log_spectrum",
    "riemann_amplitudes",
]


@dataclass(frozen=True)
class SimulationParams:
    """Defining quadruple of a simulation run.

    n_levels : chain length N (>= 1)
    a        : shift of the zeta series, 0 < a <= 1
    sigma    : real part of s; must exceed 1 for the series to converge
    omega    : angular frequency scale; evolving omega*H maps time t to s = sigma + i*omega*t
    """

    n_levels: int
    a: float
    sigma: float
    omega: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.n_levels) or int(self.n_levels) != self.n_levels or self.n_levels < 1:
            raise ValidationError(f"n_levels must be a positive integer, got {self.n_levels}")
        if not (0.0 < self.a <= 1.0):
            raise ValidationError(f"a must lie in (0, 1], got {self.a}")
        if not self.sigma > 1.0:
            raise ValidationError(f"sigma must exceed 1 (series convergence), got {self.sigma}")
        if not self.omega > 0.0:
            raise ValidationError(f"omega must be positive, got {self.omega}")
        if not (math.isfinite(self.sigma) and math.isfinite(self.omega)):
            raise ValidationError(f"sigma and omega must be finite, got {self.sigma}, {self.omega}")


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalue targets ln(n + a), n = 0..N-1, in units hbar*omega."""

    energies: np.ndarray = field(repr=False)

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        object.__setattr__(self, "energies", e)
        if e.ndim != 1 or e.size < 1:
            raise ValidationError("spectrum must be a nonempty 1-d array")
        if e.size > 1 and not np.all(np.diff(e) > 0):
            raise ValidationError("spectrum must be strictly increasing")


@dataclass(frozen=True)
class AmplitudeVector:
    """Unit-norm ground-site overlaps C_n proportional to (n+a)**(-sigma/2)."""

    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.amplitudes, dtype=float)
        object.__setattr__(self, "amplitudes", c)
        if c.ndim != 1 or c.size < 1:
            raise ValidationError("amplitudes must be a nonempty 1-d array")


def log_spectrum(params: SimulationParams) -> Spectrum:
    """Return the logarithmic spectrum [ln(a), ln(1+a), ..., ln(N-1+a)]."""
    n = np.arange(params.n_levels, dtype=float)
    return Spectrum(np.log(n + params.a))


def riemann_amplitudes(params: SimulationParams) -> AmplitudeVector:
    """Return the normalized amplitudes C_n proportional to (n+a)**(-sigma/2).

    The squared amplitudes are the Dirichlet weights of the truncated
    series at t = 0, normalized to unit sum.  The weights are formed as
    (a/(n+a))**sigma, which peak at 1, so they stay finite for any sigma.
    A weight below the smallest normal double has lost digits or underflowed
    to 0 while its root may not have, so there C_n is (a/(n+a))**(sigma/2)
    over the root of the weight sum.
    """
    n = np.arange(params.n_levels, dtype=float)
    ratios = params.a / (n + params.a)
    weights = ratios**params.sigma
    total = weights.sum()
    amplitudes = np.sqrt(weights / total)
    small = weights < np.finfo(float).tiny
    amplitudes[small] = ratios[small] ** (0.5 * params.sigma) / math.sqrt(total)
    return AmplitudeVector(amplitudes)
