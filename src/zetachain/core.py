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
    "AmplitudeVector",
    "log_spectrum",
    "riemann_amplitudes",
]


# the largest integer every double holds exactly; counts become doubles in
# np.arange(n, dtype=float), in n - 1 + a and in the 17-digit format
_MAX_COUNT = 2**53


def _shown(value) -> str:
    """value as a refusal shows it: a str quoted, an int too long to print (over 4300 digits) by its bit length."""
    if isinstance(value, str):  # unquoted, "got 0.5" would read as a refused number
        return repr(value)
    try:
        return str(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def _require(name: str, value, test, requirement: str):
    """Raise ValidationError unless test(value) holds; every scalar rule refuses through here."""
    try:
        if test(value):
            return
    except (TypeError, ValueError, OverflowError):  # a str, complex or None, or an int beyond the double range
        pass
    raise ValidationError(f"{name} must {requirement}, got {_shown(value)}")


def _check_count(name: str, value) -> int:
    """value as an int, refusing anything but a positive integer up to 2**53 (an integral float counts)."""
    _require(name, value, lambda v: 1 <= v <= _MAX_COUNT and v == int(v), "be a positive integer no larger than 2**53")
    return int(value)


def _check_positive(name: str, value):
    """Refuse anything but a positive finite double."""
    _require(name, value, lambda v: v > 0.0 and math.isfinite(v), "be positive and finite")


def _check_a(a: float):
    _require("a", a, lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")


def _check_sigma(sigma: float):
    _require("sigma", sigma, lambda v: v > 1.0, "exceed 1")
    # at sigma = inf, n_min's limit 1 passes as feasible, and tail_bound gives nan or 0
    _require("sigma", sigma, math.isfinite, "be finite")


def _real_array(name: str, value) -> np.ndarray:
    """value as a float array, refusing a complex, str or object array instead of casting it; the array is never shown."""
    a = np.asarray(value)
    if a.dtype.kind not in "biuf":
        raise ValidationError(f"{name} must be a real array, got dtype {a.dtype}")
    return a.astype(float, copy=False)


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
        _check_count("n_levels", self.n_levels)
        _check_a(self.a)
        _check_sigma(self.sigma)
        _check_positive("omega", self.omega)


@dataclass(frozen=True)
class AmplitudeVector:
    """Unit-norm ground-site overlaps C_n proportional to (n+a)**(-sigma/2); numpy reads it as that array."""

    amplitudes: np.ndarray = field(repr=False)

    def __array__(self, dtype=None, copy=None):
        if copy is None:  # numpy 1.x's np.array refuses copy=None
            return np.asarray(self.amplitudes, dtype=dtype)
        return np.array(self.amplitudes, dtype=dtype, copy=copy)


def log_spectrum(params: SimulationParams) -> np.ndarray:
    """Return the eigenvalue targets [ln(a), ln(1+a), ..., ln(N-1+a)] in units hbar*omega."""
    n = np.arange(params.n_levels, dtype=float)
    return np.log(n + params.a)


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
