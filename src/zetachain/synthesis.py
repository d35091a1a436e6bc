"""Synthesis of the tridiagonal Hamiltonian with prescribed spectrum and overlaps.

Reference pipeline: diagonal seed -> orthogonal completion of the
amplitude vector (Gram-Schmidt, as a sign-fixed LAPACK QR) -> similarity
transform -> Householder tridiagonalization (LAPACK dsytrd).  The chain
is the Jacobi matrix of the discrete measure with nodes E_n and weights
C_n**2, which has a unique tridiagonal representation with positive
off-diagonals, so two routes build it straight from the measure:
synthesize() by RKPW Givens chasing in O(N) memory and pure numpy, and
the independent cross-oracle lanczos_synthesis() by dsytrd on the
bordered matrix [[0, C^T], [C, diag(E)]].  Both end in _jacobi_chain, the
one rule for a valid chain: hoppings |J_k|, and DisconnectedChain at the
first one below the breakdown floor or not finite.  The stepwise public
functions remain as the reference route.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .core import SimulationParams, _real_array, log_spectrum, riemann_amplitudes
from .errors import DegenerateInput, DimensionMismatch, DisconnectedChain, ValidationError

__all__ = [
    "SymmetricTridiagonal",
    "orthogonal_completion",
    "similarity_transform",
    "householder_tridiagonalize",
    "synthesize",
    "lanczos_synthesis",
]

# residual below this in the completion means the candidate basis vector
# is linearly dependent and gets skipped
_GS_SKIP_TOL = 1e-10

# recurrence norms below this signal numerical breakdown
_BREAKDOWN_TOL = 1e-12

# N x N float64 arrays alive at once at the peak of the stages that follow synthesize
# (traced at N = 1500: verify_synthesis 2.01, evolve_spectral 2.01 at 3 samples,
# evolve_ode 2.11; synthesize itself 0.007, lanczos_synthesis one (N+1) x (N+1) matrix)
_DENSE_ARRAYS = 3


@dataclass(frozen=True)
class SymmetricTridiagonal:
    """Diagonal B_n and off-diagonal J_n of a symmetric tridiagonal matrix (units hbar*omega)."""

    diagonal: np.ndarray = field(repr=False)
    offdiagonal: np.ndarray = field(repr=False)

    def __post_init__(self):
        d, e = _real_array("diagonal", self.diagonal), _real_array("offdiagonal", self.offdiagonal)
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
        return np.diag(self.diagonal) + np.diag(self.offdiagonal, 1) + np.diag(self.offdiagonal, -1)


def orthogonal_completion(amplitudes) -> np.ndarray:
    """Complete a unit vector to an orthonormal basis with it as first column.

    Gram-Schmidt over the ordered candidates {C, e_0, e_1, ..., e_{N-1}}.
    Dimension counting guarantees that exactly one candidate's residual
    collapses and is skipped: e_k leaves a residual of norm
    |C_{k+1:}| / |C_{k:}|, so it is the first e_k where that ratio falls
    below the skip tolerance, else e_{N-1}.  Gram-Schmidt on the N columns
    left is their QR factorization with diag(R) > 0, taken from LAPACK's
    Householder QR with each column's sign fixed; column 0 is C / |C|.
    """
    c = _real_array("amplitudes", amplitudes)
    n = c.size
    # a NaN norm passes the comparison, so finiteness is checked on its own
    if not np.isfinite(c).all() or abs(np.linalg.norm(c) - 1.0) > 1e-10:
        raise DegenerateInput(f"amplitude vector must be finite and unit norm, |C| = {np.linalg.norm(c)}")
    # accumulate copies its first element unchanged, hence the abs
    tail = np.hypot.accumulate(np.abs(c[::-1]))[::-1]
    # residual r_{k+1} / r_k < tol, divided through by tol: tol * r_k would
    # underflow to 0 for a subnormal r_k and hide a tail that is exactly zero
    collapsed = tail[1:] / _GS_SKIP_TOL < tail[:-1]
    skip = int(np.argmax(collapsed)) if collapsed.any() else n - 1
    q, r = np.linalg.qr(np.column_stack([c, np.delete(np.eye(n), skip, axis=1)]))
    return q * np.copysign(1.0, np.diag(r))


def similarity_transform(spectrum, basis: np.ndarray) -> np.ndarray:
    """Conjugate the diagonal seed into the new basis: T^T diag(E) T."""
    e = _real_array("spectrum", spectrum)
    t = _real_array("basis", basis)
    if t.shape != (e.size, e.size):
        raise DimensionMismatch(f"basis shape {t.shape} incompatible with {e.size} energies")
    h = t.T @ (e[:, None] * t)
    return 0.5 * (h + h.T)


def _tridiagonalize(a: np.ndarray):
    """LAPACK dsytrd on the lower triangle: (packed reflectors, diagonal, off-diagonal, tau).

    Reduces a Fortran-ordered float array in place, without a copy.
    """
    from scipy.linalg import lapack  # imported here so that `import zetachain` stays light

    if a.size == 0:
        raise ValidationError(f"expected a nonempty matrix, got shape {a.shape}")
    n = a.shape[0]
    if a.shape != (n, n):
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    lwork = int(lapack.dsytrd_lwork(n, lower=1)[0])
    packed, d, e, tau, _ = lapack.dsytrd(a, lower=1, lwork=lwork, overwrite_a=True)
    return packed, d, e, tau


def householder_tridiagonalize(dense: np.ndarray):
    """Reduce a symmetric matrix to tridiagonal form by Householder reflections.

    Returns (tridiagonal, Q, reflectors) with tridiagonal = Q^T A Q.  Each
    reflector is a full-length unit vector with k+1 leading zeros at step k
    (None where a step had nothing to annihilate).  The first row of Q is
    e_0, so the first row of the diagonalizing matrix is preserved.
    """
    from scipy.linalg import lapack

    packed, d, e, tau = _tridiagonalize(np.array(_real_array("dense", dense), order="F"))
    n = d.size
    # the reflectors act on rows 1.. only, so Q = diag(1, Q') and Q' is the
    # QR-convention product of the vectors packed below the subdiagonal
    q = np.eye(n)
    if n > 1:
        block = packed[1:, :-1]
        lwork = int(lapack.dorgqr(block, tau, lwork=-1)[1][0])
        q[1:, 1:] = lapack.dorgqr(block, tau, lwork=lwork)[0]
    # reflector k is column k: the vector packed below row k + 1 under a unit pivot
    m = max(n - 2, 0)
    v = np.tril(packed[:, :m], -2)
    v[np.arange(1, m + 1), np.arange(m)] = 1.0
    v /= np.linalg.norm(v, axis=0)
    reflectors = [None if t == 0.0 else u for t, u in zip(tau, v.T)]
    return SymmetricTridiagonal(d, e), q, reflectors


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


# a bulge and B_j both 0 (an amplitude underflowed to 0) give cos, sin = 0/0: the NaN
# ends as a hopping that _jacobi_chain refuses, so it is not also warned about
@np.errstate(invalid="ignore")
def _rkpw(nodes: np.ndarray, amplitudes: np.ndarray):
    """Jacobi matrix of the measure with nodes x_n and weights C_n**2 by RKPW: (diagonal, hoppings).

    Gragg & Harrod, Numer. Math. 44 (1984) 317, in O(N**2) time and O(N)
    memory: nodes join one at a time, and each new node's bulge is chased
    down the chain by Givens rotations.  Chase m does its step j at
    tau = j + 2m; the chases alive at one tau touch disjoint entries, so
    each tau is one vectorized step on stride-2 slices.  B_0 is the square
    root of the weight so far and B_{j+1} the hopping J_j, so every hopping
    is >= 0 or not finite.  Checks nothing.
    """
    n = nodes.size
    alpha = np.zeros(n)
    b = np.zeros(n + 1)
    # per-chase state, chase m at index n - 1 - m so that it runs along j:
    # the node xi, the bulge g (seeded with C_m itself, as C_m**2 may
    # underflow) and eta = -h, where h is the bulge's coupling to site j
    xi = nodes[::-1].copy()
    g = amplitudes[::-1].copy()
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
    return alpha, b[1:n]


def _jacobi_chain(diagonal: np.ndarray, offdiagonal: np.ndarray) -> SymmetricTridiagonal:
    """The chain with site energies B and hoppings |J|, the one rule both routes end in.

    Taking |J| is a similarity by diag(+-1), which keeps the eigenvalues and
    the magnitudes of the first eigenvector row.  Raises DisconnectedChain
    at the first hopping below the breakdown floor or not finite.
    """
    hoppings = np.abs(offdiagonal)
    bad = ~(np.isfinite(hoppings) & (hoppings >= _BREAKDOWN_TOL))
    if bad.any():
        k = int(np.argmax(bad))
        raise DisconnectedChain(f"hopping J_{k} = {hoppings[k]:.3e} collapsed below {_BREAKDOWN_TOL}")
    return SymmetricTridiagonal(diagonal, hoppings)


def synthesize(params: SimulationParams) -> SymmetricTridiagonal:
    """Build the tridiagonal Hamiltonian for the given parameters.

    The result has eigenvalues ln(n+a) and ground-site eigenvector
    components C_n = N (n+a)**(-sigma/2).  It is the Jacobi matrix of the
    measure with nodes E_n and weights C_n**2, built by RKPW in O(N**2)
    time and O(N) memory, with every hopping >= 0.  Raises
    DisconnectedChain at the first hopping below the breakdown floor or
    not finite.  The dense-memory check still comes first: callers
    diagonalize or evolve the chain next, and every chain subcommand
    refuses the same N.
    """
    n = params.n_levels
    _check_dense_fits(n)
    energies = log_spectrum(params)
    amplitudes = riemann_amplitudes(params).amplitudes
    return _jacobi_chain(*_rkpw(energies, amplitudes))


def lanczos_synthesis(energies, amplitudes) -> SymmetricTridiagonal:
    """Jacobi matrix of the discrete measure with the given nodes and weights.

    Independent oracle for synthesize(): by uniqueness of the Jacobi matrix
    the two agree entrywise.  A Householder reduction of the bordered
    matrix [[0, C^T], [C, diag(E)]] keeps e_0 fixed, so it computes the
    Lanczos recurrence of the measure from the start vector C / |C|: below
    row 0 its tridiagonal form is the Jacobi matrix, up to the signs of the
    hoppings (Boley & Golub, Inverse Problems 3 (1987) 595).  LAPACK dsytrd
    reduces the lower triangle in place.  Raises ValidationError for nodes
    that are not finite and distinct or weights that are not finite and
    positive, and DisconnectedChain as synthesize() does.
    """
    e = _real_array("energies", energies)
    c = _real_array("amplitudes", amplitudes)
    n = e.size
    if c.size != n:
        raise DimensionMismatch(f"{c.size} amplitudes for {n} nodes")
    # NaN fails every comparison, so finiteness is checked before distinctness and sign
    if not np.isfinite(e).all():
        raise ValidationError("nodes must be finite")
    if n > 1 and np.min(np.diff(np.sort(e))) <= 0.0:
        raise ValidationError("nodes must be distinct")
    if not (np.isfinite(c) & (c > 0.0)).all():
        raise ValidationError("weights must be finite and strictly positive")
    _check_dense_fits(n)

    # lower triangle only, Fortran-ordered, so dsytrd reduces it in place without a copy
    h = np.zeros((n + 1, n + 1), order="F")
    h[1:, 0] = c
    np.fill_diagonal(h[1:, 1:], e)
    _, d, off, _ = _tridiagonalize(h)
    return _jacobi_chain(d[1:], off[1:])
