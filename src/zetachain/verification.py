"""Tridiagonal eigensolver and post-synthesis fidelity checks.

Ties a synthesized Hamiltonian back to its two defining properties:
eigenvalues ln(n+a) and ground-site eigenvector components of magnitude
C_n.  Eigenvector signs are left as LAPACK returns them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SimulationParams, log_spectrum, riemann_amplitudes
from .errors import ConvergenceFailure, DimensionMismatch
from .synthesis import _NUMPY_MAX_N, SymmetricTridiagonal

__all__ = ["EigenDecomposition", "SynthesisReport", "eigh_tridiagonal", "verify_synthesis"]

# absolute tolerance on |<0|v_n>| - C_n used when none is given
DEFAULT_TOL_OVERLAP = 1e-9


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors (columns).

    Each column is defined only up to sign: the chain's eigendata enter
    only as eigenvalues and squared (or absolute) first components.
    """

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class SynthesisReport:
    """Outcome of comparing a synthesized Hamiltonian against its targets."""

    max_eigenvalue_error: float
    max_overlap_error: float
    tol_lambda: float
    tol_overlap: float

    @property
    def passed(self) -> bool:
        # strict comparisons, so a NaN error fails
        return self.max_eigenvalue_error < self.tol_lambda and self.max_overlap_error < self.tol_overlap


def eigh_tridiagonal(tri: SymmetricTridiagonal) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric tridiagonal matrix.

    Above _NUMPY_MAX_N sites scipy's LAPACK tridiagonal solver runs; at or
    below it numpy's dense eigh does, on the same matrix, so that a short
    chain never imports scipy.linalg.  A convergence failure in either is
    surfaced as ConvergenceFailure.
    """
    try:
        if tri.order <= _NUMPY_MAX_N:
            lam, vec = np.linalg.eigh(tri.to_dense())
        else:
            import scipy.linalg  # imported here so that `import zetachain` stays light

            lam, vec = scipy.linalg.eigh_tridiagonal(tri.diagonal, tri.offdiagonal)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise ConvergenceFailure(str(exc)) from exc
    return EigenDecomposition(lam, vec)


def verify_synthesis(
    tri: SymmetricTridiagonal,
    params: SimulationParams,
    tol_lambda: float = None,
    tol_overlap: float = DEFAULT_TOL_OVERLAP,
) -> SynthesisReport:
    """Report spectral and overlap fidelity of a synthesized Hamiltonian.

    Compares eigenvalues against ln(n+a) and the magnitudes of the first
    eigenvector row against the prescribed amplitudes C_n.
    """
    if tri.order != params.n_levels:
        raise DimensionMismatch(f"matrix order {tri.order} != n_levels {params.n_levels}")
    if tol_lambda is None:
        tol_lambda = 1e-9 * params.n_levels
    dec = eigh_tridiagonal(tri)
    target = log_spectrum(params).energies
    amps = riemann_amplitudes(params).amplitudes
    err_lambda = float(np.abs(dec.eigenvalues - target).max())
    err_overlap = float(np.abs(np.abs(dec.eigenvectors[0, :]) - amps).max())
    return SynthesisReport(
        max_eigenvalue_error=err_lambda,
        max_overlap_error=err_overlap,
        tol_lambda=tol_lambda,
        tol_overlap=tol_overlap,
    )
