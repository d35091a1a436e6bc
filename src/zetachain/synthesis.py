"""Synthesis of the tridiagonal Hamiltonian with prescribed spectrum and overlaps.

Pipeline: diagonal seed -> orthogonal completion of the amplitude vector
-> similarity transform -> Householder tridiagonalization (LAPACK
dsytrd) -> gauge fix.
A three-term-recurrence construction of the same Jacobi matrix is kept
as an independent cross-oracle (the discrete measure with nodes E_n and
weights C_n**2 has a unique tridiagonal representation with positive
off-diagonals).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

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

# N x N float64 arrays alive at once at the peak of synthesize + verify_synthesis
_DENSE_ARRAYS = 4


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
    counting guarantees exactly one skip), evaluated in closed form.  With
    tail norms r_k = |C_{k:}|, candidate e_k leaves the residual
    e_k - C_k C_{k:} / r_k**2 of norm r_{k+1} / r_k, so column k+1 is
    r_{k+1} / r_k at row k and -C_i C_k / (r_k r_{k+1}) at rows i > k.
    The skipped index keeps its weight in every later tail, which is the
    same formula with that index moved to the end.
    """
    c = _unwrap_amplitudes(amplitudes)
    n = c.size
    if abs(np.linalg.norm(c) - 1.0) > 1e-10:
        raise DegenerateInput(f"amplitude vector must be unit norm, |C| = {np.linalg.norm(c)}")

    # accumulate copies its first element unchanged, hence the abs
    tail = np.hypot.accumulate(np.abs(c[::-1]))[::-1]
    # residual r_{k+1} / r_k < tol, divided through by tol: tol * r_k would
    # underflow to 0 for a subnormal r_k and hide a tail that is exactly zero
    collapsed = tail[1:] / _GS_SKIP_TOL < tail[:-1]
    skip = int(np.argmax(collapsed)) if collapsed.any() else n - 1
    order = np.r_[0:skip, skip + 1 : n, skip]
    cp = c[order]
    r = np.hypot.accumulate(np.abs(cp[::-1]))[::-1]
    q = np.empty((n, n))
    q[:, 0] = cp
    # below the diagonal both factors of -(C_i / r_{k+1}) (C_k / r_k) are <= 1 in
    # magnitude, so tiny tails neither underflow nor overflow; above it, where
    # tril discards the product, a tail below ~1e-308 can overflow it to inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        q[:, 1:] = np.tril(-(cp[:, None] / r[1:]) * (cp[:-1] / r[:-1]), -1)
    q[np.arange(n - 1), np.arange(1, n)] = r[1:] / r[:-1]
    basis = np.empty_like(q)
    basis[order] = q
    return basis


def similarity_transform(spectrum, basis: np.ndarray) -> np.ndarray:
    """Conjugate the diagonal seed into the new basis: T^T diag(E) T."""
    e = _unwrap_energies(spectrum)
    t = np.asarray(basis, dtype=float)
    if t.shape != (e.size, e.size):
        raise DimensionMismatch(f"basis shape {t.shape} incompatible with {e.size} energies")
    h = t.T @ (e[:, None] * t)
    return 0.5 * (h + h.T)


def _tridiagonalize(dense: np.ndarray):
    """LAPACK dsytrd on the lower triangle: (packed reflectors, diagonal, off-diagonal, tau)."""
    a = np.asarray(dense, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    lwork = int(lapack.dsytrd_lwork(n, lower=1)[0])
    packed, d, e, tau, _ = lapack.dsytrd(a, lower=1, lwork=lwork)
    return packed, d, e, tau


def householder_tridiagonalize(dense: np.ndarray):
    """Reduce a symmetric matrix to tridiagonal form by Householder reflections.

    Returns (tridiagonal, Q, reflectors) with tridiagonal = Q^T A Q.  Each
    reflector is a full-length unit vector with k+1 leading zeros at step k
    (None where a step had nothing to annihilate).  The first row of Q is
    e_0, so the first row of the diagonalizing matrix is preserved.
    """
    packed, d, e, tau = _tridiagonalize(dense)
    n = d.size
    # the reflectors act on rows 1.. only, so Q = diag(1, Q') and Q' is the
    # QR-convention product of the vectors packed below the subdiagonal
    q = np.eye(n)
    if n > 1:
        block = packed[1:, :-1]
        lwork = int(lapack.dorgqr(block, tau, lwork=-1)[1][0])
        q[1:, 1:] = lapack.dorgqr(block, tau, lwork=lwork)[0]
    reflectors = []
    for k in range(n - 2):
        if tau[k] == 0.0:
            reflectors.append(None)
            continue
        v = np.zeros(n)
        v[k + 1] = 1.0
        v[k + 2 :] = packed[k + 2 :, k]
        reflectors.append(v / np.linalg.norm(v))
    return SymmetricTridiagonal(d, e), q, reflectors


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


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_dense_fits(n: int):
    """Refuse an N whose dense working set exceeds physical memory, before allocating it."""
    need = _DENSE_ARRAYS * 8 * n * n
    memory = _physical_memory()
    if need > memory:
        largest = math.isqrt(memory // (_DENSE_ARRAYS * 8))
        raise ValidationError(
            f"N = {n} needs {need / 2**30:.3g} GiB of dense working memory, more than the "
            f"{memory / 2**30:.3g} GiB of physical memory; the largest feasible N is {largest}"
        )


def synthesize(params: SimulationParams) -> SymmetricTridiagonal:
    """Build the gauge-fixed tridiagonal Hamiltonian for the given parameters.

    The result has eigenvalues ln(n+a) and ground-site eigenvector
    components C_n = N (n+a)**(-sigma/2).
    """
    _check_dense_fits(params.n_levels)
    spectrum = log_spectrum(params)
    amps = riemann_amplitudes(params)
    if params.n_levels == 1:
        return SymmetricTridiagonal(spectrum.energies.copy(), np.empty(0))
    basis = orthogonal_completion(amps)
    dense = similarity_transform(spectrum, basis)
    _, d, e, _ = _tridiagonalize(dense)
    fixed, _ = gauge_fix(SymmetricTridiagonal(d, e))
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

    # Krylov vectors are rows, so each reorthogonalization pass reads contiguous memory
    basis = np.empty((n, n))
    basis[0] = c / np.linalg.norm(c)
    alphas = np.empty(n)
    betas = np.empty(max(n - 1, 0))
    for k in range(n):
        w = e * basis[k]
        alphas[k] = basis[k] @ w
        if k == n - 1:
            break
        for _ in range(2):
            w -= (basis[: k + 1] @ w) @ basis[: k + 1]
        beta = np.linalg.norm(w)
        if beta < _BREAKDOWN_TOL:
            raise Breakdown(f"recurrence norm {beta:.3e} at step {k}")
        betas[k] = beta
        basis[k + 1] = w / beta
    return SymmetricTridiagonal(alphas, betas)
