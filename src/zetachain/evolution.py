"""Unitary evolution of the bare edge state and its autocorrelation.

Two independent routes: spectral resolution (exact up to eigensolver
accuracy) and fixed-step 4th-order integration of the Schrodinger
equation.  The autocorrelation of a synthesized chain equals the
normalized truncated Dirichlet sum along s = sigma + i*omega*t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SimulationParams
from .errors import StepTooLarge, ValidationError
from .synthesis import SymmetricTridiagonal
from .verification import eigh_tridiagonal
from .zetaref import dirichlet_truncated

__all__ = [
    "TimeGrid",
    "AutocorrelationSeries",
    "StateTrajectory",
    "evolve_spectral",
    "evolve_ode",
    "zeta_estimate",
]

DEFAULT_STEP = 1e-3


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling of [t_start, t_end] in units 1/omega.

    Samples beyond the coherence cutoff t_coh (when given) are excluded;
    retained samples are never altered.
    """

    t_start: float
    t_end: float
    n_points: int
    t_coh: float = None

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValidationError(f"t_start and t_end must be finite, got [{self.t_start}, {self.t_end}]")
        if not self.t_start < self.t_end:
            raise ValidationError(f"need t_start < t_end, got [{self.t_start}, {self.t_end}]")
        if self.n_points < 2:
            raise ValidationError(f"n_points must be >= 2, got {self.n_points}")
        if self.t_coh is not None and not self.t_coh > 0.0:
            raise ValidationError(f"t_coh must be positive, got {self.t_coh}")

    def times(self) -> np.ndarray:
        t = np.linspace(self.t_start, self.t_end, self.n_points)
        if self.t_coh is not None:
            t = t[t <= self.t_coh]
        return t


@dataclass(frozen=True)
class AutocorrelationSeries:
    """Sampled autocorrelation a(t) = <0|psi(t)> with its method tag."""

    times: np.ndarray = field(repr=False)
    amplitudes: np.ndarray = field(repr=False)
    method: str = "spectral"

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        a = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "amplitudes", a)
        if t.shape != a.shape:
            raise ValidationError("times and amplitudes must have equal length")
        if a.size and np.abs(a).max() > 1.0 + 1e-12:
            raise ValidationError("autocorrelation magnitude exceeded 1")


@dataclass(frozen=True)
class StateTrajectory:
    """Full complex state vectors c(t) at the sample times."""

    times: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)


def _clip_unit(amps: np.ndarray) -> np.ndarray:
    """Scale round-off excursions a hair above magnitude 1 back to 1, in place."""
    mags = np.abs(amps)
    over = mags > 1.0
    amps[over] *= 1.0 / mags[over]
    return amps


def evolve_spectral(tri: SymmetricTridiagonal, grid: TimeGrid) -> AutocorrelationSeries:
    """Autocorrelation by spectral resolution: sum of w_n exp(-i lambda_n t).

    The weights w_n are the squared first components of the eigenvectors;
    no time-step error enters.
    """
    dec = eigh_tridiagonal(tri)
    weights = dec.eigenvectors[0, :] ** 2
    t = grid.times()
    amps = np.exp(-1j * np.outer(t, dec.eigenvalues)) @ weights
    return AutocorrelationSeries(t, _clip_unit(amps), "spectral")


def evolve_ode(tri: SymmetricTridiagonal, grid: TimeGrid, step: float = DEFAULT_STEP):
    """Integrate i dc/dt = H c from c(0) = e_0 with fixed-step classical RK4.

    Returns the sampled state trajectory and the autocorrelation c_0(t).
    Raises StepTooLarge when the norm drifts by more than 1e-6.
    """
    if not step > 0.0:
        raise ValidationError(f"step must be positive, got {step}")
    h_mat = tri.to_dense()
    t_samples = grid.times()
    n = tri.order

    def rk4_advance(c, t0, t1):
        span = t1 - t0
        n_sub = max(int(np.ceil(abs(span) / step - 1e-12)), 1)
        h = span / n_sub
        for _ in range(n_sub):
            k1 = -1j * (h_mat @ c)
            k2 = -1j * (h_mat @ (c + 0.5 * h * k1))
            k3 = -1j * (h_mat @ (c + 0.5 * h * k2))
            k4 = -1j * (h_mat @ (c + h * k3))
            c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return c

    c = np.zeros(n, dtype=complex)
    c[0] = 1.0
    states = np.empty((t_samples.size, n), dtype=complex)
    t_prev = 0.0
    for i, t in enumerate(t_samples):
        if t != t_prev:
            c = rk4_advance(c, t_prev, t)
            t_prev = t
        states[i] = c
        drift = abs(np.linalg.norm(c) - 1.0)
        if drift > 1e-6:
            raise StepTooLarge(f"norm drift {drift:.3e} at t = {t}; reduce the step")
    amps = _clip_unit(states[:, 0].copy())
    return StateTrajectory(t_samples, states), AutocorrelationSeries(t_samples, amps, "ode")


def zeta_estimate(series: AutocorrelationSeries, params: SimulationParams, normalized: bool = True):
    """Map the autocorrelation onto zeta estimates along s = sigma + i*omega*t.

    Normalized mode returns a(t) itself (the truncated sum divided by its
    t = 0 value); unnormalized mode rescales by the truncated sum at
    sigma, yielding the truncated Dirichlet value of zeta(s, a).
    """
    s_values = params.sigma + 1j * params.omega * series.times
    if normalized:
        values = series.amplitudes.copy()
    else:
        scale = dirichlet_truncated(params.sigma, params.a, params.n_levels).real
        values = series.amplitudes * scale
    return list(zip(s_values, values))
