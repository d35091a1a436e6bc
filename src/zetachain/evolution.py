"""Unitary evolution of the bare edge state and its autocorrelation.

Two independent routes: spectral resolution (exact up to eigensolver
accuracy) and fixed-step 4th-order integration of the Schrodinger
equation.  Under omega*H, the synthesized chain scaled by omega, the
autocorrelation at time t is the normalized truncated sum at s = sigma + i*omega*t;
the CLI's simulate command pairs it with the zeta oracle there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import _check_count, _check_positive, _require
from .errors import StepTooLarge, ValidationError
from .synthesis import SymmetricTridiagonal
from .verification import eigh_tridiagonal

__all__ = [
    "TimeGrid",
    "AutocorrelationSeries",
    "StateTrajectory",
    "evolve_spectral",
    "evolve_ode",
]

DEFAULT_STEP = 1e-3

# RK4 sub-steps between checks that the state is still finite
_FINITE_CHECK_EVERY = 256

# evolve_ode refuses a window that needs more RK4 sub-steps than this, in total
_RK4_MAX_STEPS = 10**7


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling of [t_start, t_end].

    Samples beyond the coherence cutoff t_coh (when given) are excluded;
    retained samples are never altered, and a cutoff before t_start is rejected.
    An endpoint or t_coh that is not a number (a str, complex or None), or an
    int beyond the double range, is refused; t_coh = inf keeps every sample.
    """

    t_start: float
    t_end: float
    n_points: int
    t_coh: float = None

    def __post_init__(self):
        _require("t_start", self.t_start, math.isfinite, "be finite")
        _require("t_end", self.t_end, math.isfinite, "be finite")
        if not self.t_start < self.t_end:
            raise ValidationError(f"need t_start < t_end, got [{self.t_start}, {self.t_end}]")
        if not math.isfinite(self.t_end - self.t_start):
            raise ValidationError(f"window length t_end - t_start overflows, got [{self.t_start}, {self.t_end}]")
        _check_count("n_points", self.n_points)
        _require("n_points", self.n_points, lambda n: n >= 2, "be >= 2")
        _require(
            "t_coh", self.t_coh, lambda t: t is None or (t > 0.0 and t >= self.t_start and (t == math.inf or math.isfinite(t))),
            f"be positive and not before t_start = {self.t_start}",
        )

    def times(self) -> np.ndarray:
        t = np.linspace(self.t_start, self.t_end, self.n_points)
        if self.t_coh is not None:
            t = t[t <= self.t_coh]
        return t


@dataclass(frozen=True)
class AutocorrelationSeries:
    """Sampled autocorrelation a(t) = <0|psi(t)>: float times, complex amplitudes of one shape.

    |a(t)| <= 1 holds because both producers, evolve_spectral and
    evolve_ode, pass the amplitudes through _clip_unit.
    """

    times: np.ndarray = field(repr=False)
    amplitudes: np.ndarray = field(repr=False)


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
    # real cos and sin of the phases, two real GEMVs: half the time of complex exp
    phase = np.outer(t, dec.eigenvalues)
    amps = np.cos(phase) @ weights - 1j * (np.sin(phase) @ weights)
    return AutocorrelationSeries(t, _clip_unit(amps))


def evolve_ode(tri: SymmetricTridiagonal, grid: TimeGrid, step: float = DEFAULT_STEP):
    """Integrate i dc/dt = H c from c(0) = e_0 with fixed-step classical RK4.

    For this linear system one RK4 sub-step of length h is c <- c + D(h) c
    with D(h) = sum_{1<=k<=4} (-ihH)^k / k!, a banded matrix of bandwidth
    4.  The band of each H^k is formed once per call; each sample interval
    writes D(h) from it, so a sub-step is one matvec and one add: O(N^2),
    the same classical RK4.  Adding D(h) c to c, rather than multiplying by
    I + D(h), keeps the round-off per sub-step at the size of the increment.

    Returns the sampled state trajectory and the autocorrelation c_0(t).
    Raises ValidationError, before any stepping, when step is not positive
    and finite or the window needs more than _RK4_MAX_STEPS sub-steps in
    total.  Raises StepTooLarge when the norm drifts by more than 1e-6 at a
    sample time, or as soon as the state overflows to a non-finite value
    (checked every few hundred sub-steps).
    """
    _check_positive("step", step)
    t_samples = grid.times()
    # sub-steps per sample interval, counted before any stepping; a zero span takes none
    spans = np.diff(t_samples, prepend=0.0)
    with np.errstate(over="ignore"):  # a subnormal step overflows the count to inf, which is refused
        n_subs = np.maximum(np.ceil(np.abs(spans) / step - 1e-12), 1.0)
    n_total = n_subs[spans != 0.0].sum()
    if not n_total <= _RK4_MAX_STEPS:
        raise ValidationError(
            f"step {step:.3e} needs {n_total:.3e} RK4 sub-steps over the window (limit {_RK4_MAX_STEPS:.0e})"
        )
    n = tri.order
    # H / rho with rho a power of two: an exact scaling that keeps (H / rho)^k finite;
    # rho = 2**(e - 1) <= entry_max, so it stays finite up to the largest double
    entry_max = max(np.abs(tri.diagonal).max(), np.abs(tri.offdiagonal).max(initial=0.0))
    rho = math.ldexp(0.5, math.frexp(entry_max)[1])
    d = tri.diagonal[:, None] / rho
    e = tri.offdiagonal[:, None] / rho

    # (H / rho)^k e_j lives on rows j-4..j+4 for k <= 4, so the w interleaved
    # probes sum_{j = r mod w} e_j, 9 sites apart, carry every band entry unmixed
    w = min(9, n)
    x = np.eye(w)[np.arange(n) % w]
    offsets = np.arange(-4, 5)
    rows = np.concatenate([np.arange(max(-k, 0), n - max(k, 0)) for k in offsets])
    cols = rows + np.repeat(offsets, np.maximum(n - np.abs(offsets), 0))
    bands = []
    for _ in range(4):
        y = d * x
        y[:-1] += e * x[1:]
        y[1:] += e * x[:-1]
        x = y
        bands.append(x[rows, cols % w])
    bands = np.array(bands)
    increment = np.zeros((n, n), dtype=complex)
    c = np.zeros(n, dtype=complex)
    c[0] = 1.0
    states = np.empty((t_samples.size, n), dtype=complex)
    t_prev = 0.0
    for i, t in enumerate(t_samples):
        if t != t_prev:
            n_sub = int(n_subs[i])
            h = (t - t_prev) / n_sub
            z = -1j * h * rho
            increment[rows, cols] = np.cumprod([z, z / 2.0, z / 3.0, z / 4.0]) @ bands
            for j in range(1, n_sub + 1):
                c += increment.dot(c)  # ndarray.dot: less call overhead than @ on small chains
                if j % _FINITE_CHECK_EVERY == 0 and not np.isfinite(c).all():
                    raise StepTooLarge(f"state overflowed to a non-finite value by t = {t_prev + j * h}; reduce the step")
            t_prev = t
        states[i] = c
        drift = abs(np.linalg.norm(c) - 1.0)
        if not drift <= 1e-6:  # an overflowed, NaN state fails too
            raise StepTooLarge(f"norm drift {drift:.3e} at t = {t}; reduce the step")
    amps = _clip_unit(states[:, 0].copy())
    return StateTrajectory(t_samples, states), AutocorrelationSeries(t_samples, amps)
