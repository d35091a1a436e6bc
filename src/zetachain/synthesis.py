"""Synthesis of the tridiagonal Hamiltonian with prescribed spectrum and overlaps.

Reference pipeline: diagonal seed -> orthogonal completion of the
amplitude vector -> similarity transform -> Householder
tridiagonalization (LAPACK dsytrd) -> gauge fix.  synthesize() skips the
basis: it reduces the bordered matrix [[0, C^T], [C, diag(E)]] directly,
with dsytrd above _NUMPY_MAX_N sites and an unblocked numpy loop at or
below it, so short chains never import scipy.linalg.  The stepwise public
functions remain as the reference route.
An independent cross-oracle builds the same Jacobi matrix straight from
the nodes E_n and weights C_n**2 by Givens chasing (the discrete measure
has a unique tridiagonal representation with positive off-diagonals).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .core import SimulationParams, log_spectrum, riemann_amplitudes
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
# (traced at N = 1500: 2.01, synthesize alone 1.03, its (N+1) x (N+1) bordered matrix;
# evolve_spectral 2.01 at 3 samples, evolve_ode 2.12)
_DENSE_ARRAYS = 3

# chains of at most this many sites are synthesized and diagonalized with numpy
# alone: importing scipy.linalg costs ~0.4 s, LAPACK saves well under 1 ms here
_NUMPY_MAX_N = 16


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
        if not (np.isfinite(d).all() and np.isfinite(e).all()):
            raise ValidationError("diagonal and off-diagonal must be finite")

    @property
    def order(self) -> int:
        return self.diagonal.size

    def to_dense(self) -> np.ndarray:
        h = np.diag(self.diagonal)
        if self.offdiagonal.size:
            h += np.diag(self.offdiagonal, 1) + np.diag(self.offdiagonal, -1)
        return h


def _unwrap(x, name: str) -> np.ndarray:
    """The `name` array of a Spectrum or AmplitudeVector, or x itself, as floats."""
    return np.asarray(getattr(x, name, x), dtype=float)


def _completion_order(c: np.ndarray):
    """Candidate order of the Gram-Schmidt completion of a unit C, C[order] and its tails.

    Gram-Schmidt runs over the ordered candidates {C, e_0, e_1, ..., e_{N-1}}
    and skips the single candidate whose residual collapses (dimension
    counting guarantees exactly one skip).  The skipped index keeps its
    weight in every later tail, which is the skip-free formula with that
    index moved to the end.  Returns (order, C[order], r) with tail norms
    r_k = |C[order][k:]|.
    """
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
    return order, cp, np.hypot.accumulate(np.abs(cp[::-1]))[::-1]


def orthogonal_completion(amplitudes) -> np.ndarray:
    """Complete a unit vector to an orthonormal basis with it as first column.

    Gram-Schmidt over the ordered candidates {C, e_0, e_1, ..., e_{N-1}},
    skipping the one whose residual collapses, evaluated in closed form.
    With tail norms r_k = |C_{k:}|, candidate e_k leaves the residual
    e_k - C_k C_{k:} / r_k**2 of norm r_{k+1} / r_k, so column k+1 is
    r_{k+1} / r_k at row k and -C_i C_k / (r_k r_{k+1}) at rows i > k, in
    the order of _completion_order.
    """
    c = _unwrap(amplitudes, "amplitudes")
    n = c.size
    order, cp, r = _completion_order(c)
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
    e = _unwrap(spectrum, "energies")
    t = np.asarray(basis, dtype=float)
    if t.shape != (e.size, e.size):
        raise DimensionMismatch(f"basis shape {t.shape} incompatible with {e.size} energies")
    h = t.T @ (e[:, None] * t)
    return 0.5 * (h + h.T)


def _tridiagonalize(dense: np.ndarray, overwrite: bool = False):
    """LAPACK dsytrd on the lower triangle: (packed reflectors, diagonal, off-diagonal, tau).

    With overwrite, a Fortran-ordered float array is reduced in place, without a copy.
    """
    from scipy.linalg import lapack  # imported here so that `import zetachain` stays light

    a = np.asarray(dense, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    lwork = int(lapack.dsytrd_lwork(n, lower=1)[0])
    packed, d, e, tau, _ = lapack.dsytrd(a, lower=1, lwork=lwork, overwrite_a=overwrite)
    return packed, d, e, tau


def _tridiagonalize_small(a: np.ndarray):
    """Unblocked Householder reduction of a full symmetric matrix, as LAPACK dsytd2: (diagonal, off-diagonal).

    Reduces a in place, column by column from the first, and forms no Q;
    the Householder vectors are scaled to a unit pivot and each off-diagonal
    entry is -sign(alpha) |x|, as in dlarfg.
    """
    n = a.shape[0]
    e = np.empty(n - 1)
    for k in range(n - 1):
        x = a[k + 1 :, k]
        alpha = x[0]
        # hypot, not a dot product: squares of entries below ~1e-154 would underflow to 0
        xnorm = np.hypot.reduce(x[1:]) if x.size > 1 else 0.0
        if xnorm == 0.0:
            e[k] = alpha
            continue
        beta = -math.copysign(math.hypot(alpha, xnorm), alpha)
        tau = (beta - alpha) / beta
        v = x / (alpha - beta)
        v[0] = 1.0
        # A <- H A H with H = I - tau v v^T, as the rank-2 update A - v w^T - w v^T
        sub = a[k + 1 :, k + 1 :]
        w = tau * (sub @ v)
        w -= (0.5 * tau * (w @ v)) * v
        vw = np.outer(v, w)
        sub -= vw
        sub -= vw.T
        e[k] = beta
    return np.diagonal(a).copy(), e


def householder_tridiagonalize(dense: np.ndarray):
    """Reduce a symmetric matrix to tridiagonal form by Householder reflections.

    Returns (tridiagonal, Q, reflectors) with tridiagonal = Q^T A Q.  Each
    reflector is a full-length unit vector with k+1 leading zeros at step k
    (None where a step had nothing to annihilate).  The first row of Q is
    e_0, so the first row of the diagonalizing matrix is preserved.
    """
    from scipy.linalg import lapack

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
    components C_n = N (n+a)**(-sigma/2).  It is the Jacobi matrix of the
    measure with nodes E_n and weights C_n**2: a Householder reduction of
    the bordered matrix [[0, C^T], [C, diag(E)]] keeps e_0 fixed, so below
    row 0 its tridiagonal form is that Jacobi matrix (Boley & Golub, Inverse
    Problems 3 (1987) 595).  Above _NUMPY_MAX_N sites LAPACK dsytrd reduces
    it in place; at or below, an unblocked numpy loop does, so that such a
    run never imports scipy.linalg.  The two agree to round-off, not bit
    for bit.
    """
    n = params.n_levels
    _check_dense_fits(n)
    energies = log_spectrum(params).energies
    amplitudes = riemann_amplitudes(params).amplitudes
    if n <= _NUMPY_MAX_N:
        h = np.diag(np.r_[0.0, energies])
        h[1:, 0] = h[0, 1:] = amplitudes
        d, e = _tridiagonalize_small(h)
    else:
        # lower triangle only, Fortran-ordered, so dsytrd reduces it in place without a copy
        h = np.zeros((n + 1, n + 1), order="F")
        h[1:, 0] = amplitudes
        np.fill_diagonal(h[1:, 1:], energies)
        _, d, e, _ = _tridiagonalize(h, overwrite=True)
    fixed, _ = gauge_fix(SymmetricTridiagonal(d[1:], e[1:]))
    if fixed.offdiagonal.size and fixed.offdiagonal.min() < _BREAKDOWN_TOL:
        k = int(np.argmin(fixed.offdiagonal))
        raise DisconnectedChain(
            f"hopping J_{k} = {fixed.offdiagonal[k]:.3e} collapsed below {_BREAKDOWN_TOL}"
        )
    return fixed


def lanczos_synthesis(energies, amplitudes) -> SymmetricTridiagonal:
    """Jacobi matrix of the discrete measure with the given nodes and weights.

    Independent oracle for synthesize(): by uniqueness of the Jacobi
    matrix the two agree entrywise.  Built by RKPW (Gragg & Harrod, Numer.
    Math. 44 (1984) 317) in O(N**2) time and O(N) memory: nodes join one at
    a time, and each new node's bulge is chased down the chain by Givens
    rotations.  Chase m does its step j at tau = j + 2m; the chases alive
    at one tau touch disjoint entries, so each tau is one vectorized step
    on stride-2 slices.  B_0 is the square root of the weight so far and
    B_{j+1} the hopping J_j.  Raises Breakdown at the first J_k below
    the breakdown floor or not finite.
    """
    e = _unwrap(energies, "energies")
    c = _unwrap(amplitudes, "amplitudes")
    n = e.size
    if c.size != n:
        raise DimensionMismatch(f"{c.size} amplitudes for {n} nodes")
    if n > 1 and np.min(np.diff(np.sort(e))) <= 0.0:
        raise ValidationError("nodes must be distinct")
    if np.any(c <= 0.0):
        raise ValidationError("weights must be strictly positive")

    alpha = np.zeros(n)
    b = np.zeros(n + 1)
    # per-chase state, chase m at index n - 1 - m so that it runs along j:
    # the node xi, the bulge g (seeded with C_m itself, as C_m**2 may
    # underflow) and eta = -h, where h is the bulge's coupling to site j
    xi = e[::-1].copy()
    g = c[::-1].copy()
    eta = np.zeros(n)
    for tau in range(3 * n - 2):
        # chases m_lo..m_hi are alive, chase m at site j = tau - 2m
        m_lo, m_hi = (tau + 2) // 3, (tau // 2 if tau < 2 * n else n - 1)
        j0, j1 = tau - 2 * m_hi, tau - 2 * m_lo + 1
        k0, k1 = n - 1 - m_hi, n - m_lo
        bj, bj1, aj = b[j0:j1:2], b[j0 + 1 : j1 + 1 : 2], alpha[j0:j1:2]
        x, gm, em = xi[k0:k1], g[k0:k1], eta[k0:k1]
        r = np.hypot(bj, gm)
        cos, sin = bj / r, gm / r
        # rotate sites (j, bulge), difference form: u = s (xi - alpha_j) + 2 c h,
        # t = s u, alpha_j += t, xi -= t, g <- c u - h, B_j <- r,
        # eta <- s B_{j+1}, B_{j+1} <- c B_{j+1}, each from the old values
        u = sin * (x - aj)
        p = cos * em
        u -= p
        u -= p
        t = sin * u
        np.multiply(cos, u, out=gm)
        gm += em
        aj += t
        x -= t
        bj[...] = r
        np.multiply(sin, bj1, out=em)
        bj1 *= cos

    betas = b[1:n]
    bad = ~(np.isfinite(betas) & (betas >= _BREAKDOWN_TOL))
    if bad.any():
        k = int(np.argmax(bad))
        raise Breakdown(f"recurrence norm {betas[k]:.3e} at step {k}")
    return SymmetricTridiagonal(alpha, betas)
