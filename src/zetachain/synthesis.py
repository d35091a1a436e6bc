"""Synthesis of the tridiagonal Hamiltonian with prescribed spectrum and overlaps.

Pipeline: diagonal seed -> orthogonal completion of the amplitude vector
-> similarity transform -> Householder tridiagonalization -> gauge fix.
A three-term-recurrence construction of the same Jacobi matrix is kept
as an independent cross-oracle (the discrete measure with nodes E_n and
weights C_n**2 has a unique tridiagonal representation with positive
off-diagonals).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    AmplitudeVector,
    SimulationParams,
    Spectrum,
    log_spectrum,
    riemann_amplitudes,
)
from .errors import Breakdown, DegenerateInput, DimensionMismatch, DisconnectedChain, ValidationError

__all__ = [
    "SymmetricTridiagonal",
    "orthogonal_completion",
    "similarity_transform",
    "householder_tridiagonalize",
    "gauge_fix",
    "synthesize",
    "lanczos_synthesis",
]

# residual below this in the completion means the candidate basis vector
# is linearly dependent and gets skipped
_GS_SKIP_TOL = 1e-10

# recurrence norms below this signal numerical breakdown
_BREAKDOWN_TOL = 1e-12


@dataclass(frozen=True)
class SymmetricTridiagonal:
    """Diagonal B_n and off-diagonal J_n of a symmetric tridiagonal matrix (units hbar*omega)."""

    diagonal: np.ndarray = field(repr=False)
    offdiagonal: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = np.asarray(self.diagonal, dtype=float)
        e = np.asarray(self.offdiagonal, dtype=float)
        object.__setattr__(self, "diagonal", d)
        object.__setattr__(self, "offdiagonal", e)
        if d.ndim != 1 or d.size < 1:
            raise ValidationError("diagonal must be a nonempty 1-d array")
        if e.ndim != 1 or e.size != d.size - 1:
            raise DimensionMismatch(
                f"off-diagonal must have length {d.size - 1}, got {e.size}"
            )

    @property
    def order(self) -> int:
        return self.diagonal.size

    def to_dense(self) -> np.ndarray:
        h = np.diag(self.diagonal)
        if self.offdiagonal.size:
            h += np.diag(self.offdiagonal, 1) + np.diag(self.offdiagonal, -1)
        return h


def _unwrap_amplitudes(c) -> np.ndarray:
    if isinstance(c, AmplitudeVector):
        return np.asarray(c.amplitudes, dtype=float)
    return np.asarray(c, dtype=float)


def _unwrap_energies(e) -> np.ndarray:
    if isinstance(e, Spectrum):
        return np.asarray(e.energies, dtype=float)
    return np.asarray(e, dtype=float)


def orthogonal_completion(amplitudes) -> np.ndarray:
    """Complete a unit vector to an orthonormal basis with it as first column.

    Gram-Schmidt over the ordered candidates {C, e_0, e_1, ..., e_{N-1}},
    skipping the single candidate whose residual collapses (dimension
    counting guarantees exactly one skip).  Orthogonalization is done in
    two passes so the product stays orthonormal for large N.
    """
    c = _unwrap_amplitudes(amplitudes)
    n = c.size
    if abs(np.linalg.norm(c) - 1.0) > 1e-10:
        raise DegenerateInput(f"amplitude vector must be unit norm, |C| = {np.linalg.norm(c)}")

    q = np.empty((n, n))
    q[:, 0] = c
    m = 1
    for k in range(n):
        if m == n:
            break
        v = np.zeros(n)
        v[k] = 1.0
        for _ in range(2):
            v -= q[:, :m] @ (q[:, :m].T @ v)
        r = np.linalg.norm(v)
        if r < _GS_SKIP_TOL:
            continue
        q[:, m] = v / r
        m += 1
    if m < n:
        raise DegenerateInput("orthogonal completion did not produce a full basis")
    return q


def similarity_transform(spectrum, basis: np.ndarray) -> np.ndarray:
    """Conjugate the diagonal seed into the new basis: T^T diag(E) T."""
    e = _unwrap_energies(spectrum)
    t = np.asarray(basis, dtype=float)
    if t.shape != (e.size, e.size):
        raise DimensionMismatch(f"basis shape {t.shape} incompatible with {e.size} energies")
    h = t.T @ (e[:, None] * t)
    return 0.5 * (h + h.T)


def householder_tridiagonalize(dense: np.ndarray):
    """Reduce a symmetric matrix to tridiagonal form by Householder reflections.

    Returns (tridiagonal, Q, reflectors) with tridiagonal = Q^T A Q.  Each
    reflector is a full-length unit vector with k+1 leading zeros at step k
    (None where a step had nothing to annihilate).  The first row of Q is
    e_0, so the first row of the diagonalizing matrix is preserved.
    """
    a = np.array(dense, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    q = np.eye(n)
    reflectors = []
    for k in range(n - 2):
        x = a[k + 1 :, k].copy()
        if np.linalg.norm(x[1:]) == 0.0:
            reflectors.append(None)
            continue
        # pivot takes the sign opposite to the reflected image, i.e. the
        # numerically stable choice u_0 = x_0 + sign(x_0) |x|
        alpha = -np.copysign(np.linalg.norm(x), x[0])
        u = x
        u[0] -= alpha
        v = u / np.linalg.norm(u)

        sub = a[k + 1 :, k + 1 :]
        p = sub @ v
        kappa = v @ p
        sub -= 2.0 * (np.outer(v, p) + np.outer(p, v)) - 4.0 * kappa * np.outer(v, v)
        a[k + 1, k] = alpha
        a[k, k + 1] = alpha
        a[k + 2 :, k] = 0.0
        a[k, k + 2 :] = 0.0
        q[:, k + 1 :] -= 2.0 * np.outer(q[:, k + 1 :] @ v, v)

        v_full = np.zeros(n)
        v_full[k + 1 :] = v
        reflectors.append(v_full)
    tri = SymmetricTridiagonal(np.diag(a).copy(), np.diag(a, 1).copy())
    return tri, q, reflectors


def gauge_fix(tri: SymmetricTridiagonal):
    """Flip site signs so every hopping amplitude is nonnegative.

    Conjugation by diag(s) with s_0 = +1 and s_{k+1} = s_k * sign(J_k);
    diagonal and spectrum are untouched.  Returns the fixed matrix and
    the sign sequence applied.
    """
    j = tri.offdiagonal
    signs = np.concatenate(([1.0], np.cumprod(np.where(j >= 0.0, 1.0, -1.0))))
    fixed = SymmetricTridiagonal(tri.diagonal.copy(), np.abs(j))
    return fixed, signs


def synthesize(params: SimulationParams) -> SymmetricTridiagonal:
    """Build the gauge-fixed tridiagonal Hamiltonian for the given parameters.

    The result has eigenvalues ln(n+a) and ground-site eigenvector
    components C_n = N (n+a)**(-sigma/2).
    """
    spectrum = log_spectrum(params)
    amps = riemann_amplitudes(params)
    if params.n_levels == 1:
        return SymmetricTridiagonal(spectrum.energies.copy(), np.empty(0))
    basis = orthogonal_completion(amps)
    dense = similarity_transform(spectrum, basis)
    tri, _, _ = householder_tridiagonalize(dense)
    fixed, _ = gauge_fix(tri)
    if fixed.offdiagonal.size and fixed.offdiagonal.min() < _BREAKDOWN_TOL:
        k = int(np.argmin(fixed.offdiagonal))
        raise DisconnectedChain(
            f"hopping J_{k} = {fixed.offdiagonal[k]:.3e} collapsed below {_BREAKDOWN_TOL}"
        )
    return fixed


def lanczos_synthesis(energies, amplitudes) -> SymmetricTridiagonal:
    """Jacobi matrix of the discrete measure with the given nodes and weights.

    Three-term recurrence on the diagonal operator diag(E) seeded with the
    amplitude vector, with full reorthogonalization.  Independent oracle
    for synthesize(): by uniqueness of the Jacobi matrix the two agree
    entrywise.
    """
    e = _unwrap_energies(energies)
    c = _unwrap_amplitudes(amplitudes)
    n = e.size
    if c.size != n:
        raise DimensionMismatch(f"{c.size} amplitudes for {n} nodes")
    if n > 1 and np.min(np.diff(np.sort(e))) <= 0.0:
        raise ValidationError("nodes must be distinct")
    if np.any(c <= 0.0):
        raise ValidationError("weights must be strictly positive")

    v = c / np.linalg.norm(c)
    basis = np.empty((n, n))
    basis[:, 0] = v
    alphas = np.empty(n)
    betas = np.empty(max(n - 1, 0))
    for k in range(n):
        w = e * basis[:, k]
        alphas[k] = basis[:, k] @ w
        if k == n - 1:
            break
        for _ in range(2):
            w -= basis[:, : k + 1] @ (basis[:, : k + 1].T @ w)
        beta = np.linalg.norm(w)
        if beta < _BREAKDOWN_TOL:
            raise Breakdown(f"recurrence norm {beta:.3e} at step {k}")
        betas[k] = beta
        basis[:, k + 1] = w / beta
    return SymmetricTridiagonal(alphas, betas)
