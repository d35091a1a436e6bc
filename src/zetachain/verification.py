"""Tridiagonal eigensolver and post-synthesis fidelity checks.

Ties a synthesized Hamiltonian back to its two defining properties:
eigenvalues ln(n+a) and ground-site eigenvector components C_n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SimulationParams, log_spectrum, riemann_amplitudes
from .errors import ConvergenceFailure, DimensionMismatch
from .synthesis import SymmetricTridiagonal

__all__ = ["EigenDecomposition", "SynthesisReport", "eigh_tridiagonal", "verify_synthesis"]

# absolute tolerance on |<0|v_n>| - C_n used when none is given
DEFAULT_TOL_OVERLAP = 1e-9


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors (columns).

    Sign convention: the first component of nonnegligible magnitude of
    each eigenvector is positive.
    """

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class SynthesisReport:
    """Outcome of comparing a synthesized Hamiltonian against its targets."""

    max_eigenvalue_error: float
    max_overlap_error: float
    eigenvalues_ok: bool
    overlaps_ok: bool
    tol_lambda: float
    tol_overlap: float

    @property
    def passed(self) -> bool:
        return self.eigenvalues_ok and self.overlaps_ok


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so the first component above 1e-12 of the column max is positive."""
    mags = np.abs(vectors)
    lead = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)
    flip = vectors[lead, np.arange(vectors.shape[1])] < 0.0
    return np.where(flip, -vectors, vectors)


def eigh_tridiagonal(tri: SymmetricTridiagonal) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric tridiagonal matrix.

    Backed by LAPACK's implicit-shift tridiagonal solver; a convergence
    failure there is surfaced as ConvergenceFailure.
    """
    import scipy.linalg  # imported here so that `import zetachain` stays light

    if tri.order == 1:
        return EigenDecomposition(tri.diagonal.copy(), np.ones((1, 1)))
    try:
        lam, vec = scipy.linalg.eigh_tridiagonal(tri.diagonal, tri.offdiagonal)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise ConvergenceFailure(str(exc)) from exc
    return EigenDecomposition(lam, _fix_signs(vec))


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
        eigenvalues_ok=err_lambda < tol_lambda,
        overlaps_ok=err_overlap < tol_overlap,
        tol_lambda=tol_lambda,
        tol_overlap=tol_overlap,
    )
