import functools
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest

from zetachain import synthesis
from zetachain import (
    DegenerateInput,
    DimensionMismatch,
    DisconnectedChain,
    SimulationParams,
    SymmetricTridiagonal,
    ValidationError,
    householder_tridiagonalize,
    lanczos_synthesis,
    log_spectrum,
    orthogonal_completion,
    riemann_amplitudes,
    similarity_transform,
    synthesize,
)

# golden (N=5, a=0.5, sigma=2) reference values, printed to 3 decimals
GOLDEN_T = np.array(
    [
        [0.919, 0.394, 0.0, 0.0, 0.0],
        [0.306, -0.714, 0.629, 0.0, 0.0],
        [0.184, -0.429, -0.576, 0.671, 0.0],
        [0.131, -0.306, -0.412, -0.585, 0.614],
        [0.102, -0.238, -0.320, -0.455, -0.789],
    ]
)
GOLDEN_HP = np.array(
    [
        [-0.479, -0.499, -0.136, -0.053, -0.020],
        [-0.499, 0.470, 0.317, 0.124, 0.047],
        [-0.136, 0.317, 0.831, 0.167, 0.064],
        [-0.053, 0.124, 0.167, 1.153, 0.090],
        [-0.020, 0.047, 0.064, 0.090, 1.409],
    ]
)
GOLDEN_REFLECTORS = [
    np.array([0.0, 0.990, 0.132, 0.052, 0.020]),
    np.array([0.0, 0.0, 0.959, 0.256, 0.119]),
    np.array([0.0, 0.0, 0.0, 0.941, 0.337]),
]
GOLDEN_DIAG = np.array([-0.479, 0.701, 0.894, 1.062, 1.208])
GOLDEN_OFF = np.array([0.520, 0.445, 0.311, 0.198])

GOLDEN_PARAMS = SimulationParams(5, 0.5, 2.0)


def gram_schmidt_reference(c):
    """Loop form of orthogonal_completion: two-pass Gram-Schmidt over {C, e_0, e_1, ...}."""
    n = c.size
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
        if r < synthesis._GS_SKIP_TOL:
            continue
        q[:, m] = v / r
        m += 1
    assert m == n
    return q


def householder_reference(dense):
    """Loop form of householder_tridiagonalize: (diagonal, off-diagonal, Q, reflectors)."""
    a = np.array(dense, dtype=float)
    n = a.shape[0]
    q = np.eye(n)
    reflectors = []
    for k in range(n - 2):
        x = a[k + 1 :, k].copy()
        if np.linalg.norm(x[1:]) == 0.0:
            reflectors.append(None)
            continue
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
    return np.diag(a).copy(), np.diag(a, 1).copy(), q, reflectors


def lanczos_reference(energies, amplitudes):
    """Loop form of lanczos_synthesis: fully reorthogonalized Lanczos on diag(E), (alphas, betas)."""
    e = np.asarray(energies, dtype=float)
    c = np.asarray(amplitudes, dtype=float)
    n = e.size
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
        if beta < synthesis._BREAKDOWN_TOL:
            raise DisconnectedChain(f"hopping J_{k} = {beta:.3e} collapsed below {synthesis._BREAKDOWN_TOL}")
        betas[k] = beta
        basis[k + 1] = w / beta
    return alphas, betas


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


_RNG = np.random.default_rng(7)
COMPLETION_CASES = {
    "positive_3": _unit(_RNG.uniform(0.1, 1.0, 3)),
    "positive_40": _unit(_RNG.uniform(0.1, 1.0, 40)),
    "positive_150": _unit(_RNG.uniform(0.1, 1.0, 150)),
    "mixed_sign_12": _unit(_RNG.standard_normal(12)),
    "mixed_sign_60": _unit(_RNG.standard_normal(60)),
    "negative_last": _unit([0.5, 0.2, -0.3, 0.6, -0.4]),
    "zero_tail": _unit([0.6, -0.8, 0.0, 0.0, 0.0]),
    "zero_inside_and_tail": _unit([0.3, 0.0, -0.5, 0.4, 0.0, 0.0]),
    "basis_vector_last": _unit([0.0, 0.0, 0.0, 1.0]),
    # ratio 1e-9 stays above the skip tolerance until C_35 ~ 1e-315 (subnormal), then C_36.. = 0
    "underflowing_tail": _unit([1e-9**k for k in range(40)]),
    # C_0 dominates, so r_1 / r_0 falls below the skip tolerance and e_0 is skipped
    "early_skip_a0.01_s12": riemann_amplitudes(SimulationParams(30, 0.01, 12.0)).amplitudes,
    "early_skip_a0.01_s20": riemann_amplitudes(SimulationParams(30, 0.01, 20.0)).amplitudes,
}


def test_completion_matches_golden():
    t = orthogonal_completion(riemann_amplitudes(GOLDEN_PARAMS))
    np.testing.assert_allclose(t, GOLDEN_T, atol=1e-3)


def test_completion_of_basis_vector_is_identity():
    for n in (2, 4, 7):
        c = np.zeros(n)
        c[0] = 1.0
        np.testing.assert_allclose(orthogonal_completion(c), np.eye(n), atol=1e-14)


def test_completion_two_site_hand_case():
    r = 1.0 / math.sqrt(2.0)
    t = orthogonal_completion(np.array([r, r]))
    np.testing.assert_allclose(t, [[r, r], [r, -r]], atol=1e-14)


def test_completion_is_orthogonal():
    rng = np.random.default_rng(11)
    for n in (3, 16, 150):
        c = rng.uniform(0.1, 1.0, n)
        c /= np.linalg.norm(c)
        t = orthogonal_completion(c)
        assert np.abs(t.T @ t - np.eye(n)).max() < 1e-12
        np.testing.assert_allclose(t[:, 0], c, atol=1e-14)


@pytest.mark.parametrize("name", sorted(COMPLETION_CASES))
def test_completion_matches_gram_schmidt_reference(name):
    c = COMPLETION_CASES[name]
    t = orthogonal_completion(c)
    np.testing.assert_allclose(t, gram_schmidt_reference(c), rtol=0, atol=1e-13)
    assert np.abs(t.T @ t - np.eye(c.size)).max() < 1e-13


def test_completion_early_skip_moves_past_e0():
    # with e_0 skipped, column 1 comes from e_1 and is e_1 up to C_1 * C_0 ~ 1e-20
    c = COMPLETION_CASES["early_skip_a0.01_s20"]
    t = orthogonal_completion(c)
    assert abs(t[0, 1]) < 1e-15 and t[1, 1] == pytest.approx(1.0, abs=1e-15)


def test_completion_rejects_non_unit_input():
    with pytest.raises(DegenerateInput):
        orthogonal_completion(np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_completion_rejects_non_finite_input(bad):
    # a NaN norm passes a plain unit-norm comparison
    with pytest.raises(DegenerateInput, match="finite"):
        orthogonal_completion(np.array([0.6, bad, 0.8]))


def test_similarity_matches_golden():
    d = log_spectrum(GOLDEN_PARAMS)
    hp = similarity_transform(d, orthogonal_completion(riemann_amplitudes(GOLDEN_PARAMS)))
    np.testing.assert_allclose(hp, GOLDEN_HP, atol=2e-3)
    assert abs(hp[0, 0] - (-0.479)) < 1e-3
    assert abs(hp[0, 1] - (-0.499)) < 1e-3


def test_similarity_identity_basis():
    d = log_spectrum(SimulationParams(4, 1.0, 2.0))
    np.testing.assert_allclose(
        similarity_transform(d, np.eye(4)), np.diag(d), atol=1e-15
    )


def test_similarity_preserves_eigenvalues():
    d = log_spectrum(SimulationParams(9, 0.7, 1.8))
    t = orthogonal_completion(riemann_amplitudes(SimulationParams(9, 0.7, 1.8)))
    hp = similarity_transform(d, t)
    assert np.abs(hp - hp.T).max() < 1e-13
    np.testing.assert_allclose(np.linalg.eigvalsh(hp), d, atol=1e-12)


def test_similarity_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        similarity_transform(log_spectrum(SimulationParams(3, 1.0, 2.0)), np.eye(4))


def _stepwise_chain(p):
    """The reference route: GEMM seed and Householder reduction, checked by the rule both routes use.

    Takes the tridiagonal from the dsytrd call that householder_tridiagonalize
    makes, so the values are the same, without forming Q and the reflectors.
    """
    seed = similarity_transform(log_spectrum(p), orthogonal_completion(riemann_amplitudes(p)))
    _, d, e, _ = synthesis._tridiagonalize(seed)
    return synthesis._jacobi_chain(d, e)


def _breakdown_or_chain(route):
    """(k, None) when a route raises DisconnectedChain naming the hopping J_k, else (None, what it built)."""
    try:
        return None, route()
    except DisconnectedChain as err:
        return int(re.search(r"J_(\d+) ", str(err)).group(1)), None


# Measured worst gaps on this grid: diagonal 4.9e-16 * N absolute (N = 5, a = 1,
# sigma = 20; 3.2e-13 at N = 1000) and hoppings 4.2e-15 * N relative (N = 200,
# a = 0.5, sigma = 5; 3.8e-12 at N = 1000).  Bounds about 10x that.
@pytest.mark.parametrize("sigma", [1.05, 2.0, 5.0, 20.0, 40.0])
@pytest.mark.parametrize("a", [0.05, 0.5, 1.0])
@pytest.mark.parametrize("n", [2, 5, 64, 200, 1000])
def test_seed_matches_similarity_route_on_riemann_grid(n, a, sigma):
    p = SimulationParams(n, a, sigma)
    k, tri = _breakdown_or_chain(lambda: synthesize(p))
    k_reference, reference = _breakdown_or_chain(lambda: _stepwise_chain(p))
    # a = 0.05 at sigma >= 20: the weight beyond site 0 is below the floor
    assert k_reference == k
    if k is not None:
        return
    np.testing.assert_allclose(tri.diagonal, reference.diagonal, rtol=0, atol=5e-15 * n)
    np.testing.assert_allclose(tri.offdiagonal, reference.offdiagonal, rtol=5e-14 * n, atol=0)


def test_householder_matches_golden_reflectors():
    tri, q, vs = householder_tridiagonalize(GOLDEN_HP)
    assert len(vs) == 3
    for v, ref in zip(vs, GOLDEN_REFLECTORS):
        sign = 1.0 if v @ ref >= 0 else -1.0
        np.testing.assert_allclose(sign * v, ref, atol=2e-3)


def test_householder_reconstruction_and_first_row():
    tri, q, _ = householder_tridiagonalize(GOLDEN_HP)
    np.testing.assert_allclose(q.T @ GOLDEN_HP @ q, tri.to_dense(), atol=1e-13)
    np.testing.assert_allclose(q[0, :], np.eye(5)[0], atol=0)
    assert np.abs(q.T @ q - np.eye(5)).max() < 1e-13


def test_householder_reflector_leading_zeros():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((8, 8))
    m = 0.5 * (m + m.T)
    _, _, vs = householder_tridiagonalize(m)
    for k, v in enumerate(vs):
        assert v is not None
        assert np.all(v[: k + 1] == 0.0)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-13


def test_householder_already_tridiagonal_unchanged():
    tri_in = SymmetricTridiagonal(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.5, -0.2, 0.1]))
    tri, q, vs = householder_tridiagonalize(tri_in.to_dense())
    np.testing.assert_allclose(tri.diagonal, tri_in.diagonal, atol=0)
    np.testing.assert_allclose(tri.offdiagonal, tri_in.offdiagonal, atol=0)
    np.testing.assert_allclose(q, np.eye(4), atol=0)
    assert all(v is None for v in vs)


def _symmetric(n, seed):
    m = np.random.default_rng(seed).standard_normal((n, n))
    return 0.5 * (m + m.T)


@pytest.mark.parametrize("order", ["C", "F"])
def test_householder_leaves_the_callers_matrix_untouched(order):
    # a Fortran-ordered float array is what dsytrd could reduce in place
    m = np.array(_symmetric(6, 5), order=order)
    before = m.copy()
    householder_tridiagonalize(m)
    np.testing.assert_array_equal(m, before)


def test_lanczos_memory_is_one_dense_array():
    # the bordered matrix is built Fortran-ordered, so dsytrd reduces it in place
    # without a copy; measured 1.04 N x N at N = 1000
    p = SimulationParams(1000, 0.5, 2.0)
    e, c = log_spectrum(p), riemann_amplitudes(p)
    # imports and LAPACK workspace queries outside the trace
    lanczos_synthesis(np.array([0.0, 1.0]), np.array([0.6, 0.8]))
    tracemalloc.start()
    try:
        lanczos_synthesis(e, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 8 * p.n_levels**2


HOUSEHOLDER_CASES = {
    "golden_hp": GOLDEN_HP,
    "random_8": _symmetric(8, 3),
    "random_40": _symmetric(40, 5),  # past LAPACK's blocking crossover
    "pipeline_n60": similarity_transform(
        log_spectrum(SimulationParams(60, 0.3, 1.7)),
        orthogonal_completion(riemann_amplitudes(SimulationParams(60, 0.3, 1.7))),
    ),
    "already_tridiagonal": SymmetricTridiagonal(np.arange(5.0), np.array([0.5, -0.2, 0.0, 0.1])).to_dense(),
}


@pytest.mark.parametrize("name", sorted(HOUSEHOLDER_CASES))
def test_householder_matches_loop_reference(name):
    dense = HOUSEHOLDER_CASES[name]
    d_ref, e_ref, q_ref, vs_ref = householder_reference(dense)
    tri, q, vs = householder_tridiagonalize(dense)
    scale = np.abs(dense).max()
    np.testing.assert_allclose(tri.diagonal, d_ref, rtol=0, atol=1e-13 * scale * dense.shape[0])
    np.testing.assert_allclose(tri.offdiagonal, e_ref, rtol=0, atol=1e-13 * scale * dense.shape[0])
    np.testing.assert_allclose(q, q_ref, rtol=0, atol=1e-12)
    assert len(vs) == len(vs_ref)
    for v, ref in zip(vs, vs_ref):
        assert (v is None) == (ref is None)
        if v is not None:
            # LAPACK scales the reflector to a unit pivot, so the two agree up to sign
            np.testing.assert_allclose(np.copysign(1.0, v @ ref) * v, ref, rtol=0, atol=1e-12)


def _bordered(p):
    """The bordered matrix [[0, C^T], [C, diag(E)]] of the parameters p."""
    c = riemann_amplitudes(p).amplitudes
    return np.block([[np.zeros((1, 1)), c[None, :]], [c[:, None], np.diag(log_spectrum(p))]])


# lanczos_synthesis runs dsytrd at every N; N = 1000 is past dsytrd's crossover
# to blocked reduction, where it reduces in place
@pytest.mark.parametrize(
    "p",
    [
        SimulationParams(1, 1.0, 2.0),
        SimulationParams(2, 0.5, 2.0),
        SimulationParams(5, 0.5, 2.0),
        SimulationParams(16, 0.01, 1.05),
        SimulationParams(17, 0.5, 2.0),
        SimulationParams(40, 0.3, 1.7),
        SimulationParams(120, 0.5, 2.0),
        SimulationParams(1000, 0.5, 2.0),
    ],
    ids=lambda p: f"n{p.n_levels}",
)
def test_lanczos_is_bit_identical_to_householder_route(p):
    tri, q, _ = householder_tridiagonalize(_bordered(p))
    # e_0 stays fixed, so row 0 couples site 0 to the rest by |C| = 1 alone
    np.testing.assert_array_equal(q[0], np.eye(p.n_levels + 1)[0])
    assert tri.diagonal[0] == 0.0 and abs(tri.offdiagonal[0]) == pytest.approx(1.0, abs=1e-15)
    chain = lanczos_synthesis(log_spectrum(p), riemann_amplitudes(p))
    np.testing.assert_array_equal(chain.diagonal, tri.diagonal[1:])
    np.testing.assert_array_equal(chain.offdiagonal, np.abs(tri.offdiagonal[1:]))


# Measured worst gaps of synthesize (RKPW) on this grid: diagonal absolute / N and
# hoppings relative / N.  Bounds about 10x that.
#   lanczos_synthesis (dsytrd on the bordered matrix): 1.5e-15 (N = 3, a = 0.01, sigma = 5), 1.7e-15 (N = 16, a = 1, sigma = 60)
#   the stepwise route:                                 4.4e-16 (N = 2, a = 0.01, sigma = 2),  1.4e-15 (N = 9, a = 1, sigma = 40)
SHORT_CHAIN_BOUNDS = {"bordered_dsytrd": (1.5e-14, 3.5e-14), "stepwise": (1.2e-14, 3e-14)}


@pytest.mark.parametrize("sigma", [1.05, 2.0, 5.0, 20.0, 40.0, 60.0, 200.0])
@pytest.mark.parametrize("a", [0.01, 0.05, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 16])
def test_numpy_route_matches_lapack_and_rkpw_on_riemann_grid(n, a, sigma):
    # synthesize runs RKPW in numpy; both references run LAPACK dsytrd, on the
    # bordered matrix and on the stepwise route's dense seed
    p = SimulationParams(n, a, sigma)
    e, c = log_spectrum(p), riemann_amplitudes(p).amplitudes
    # a weight C_n**2 may underflow (a = 0.01 and 0.05 at sigma = 200), its root may not
    assert (c > 0.0).all()
    routes = {"bordered_dsytrd": lambda: lanczos_synthesis(e, c), "stepwise": lambda: _stepwise_chain(p)}
    k, chain = _breakdown_or_chain(lambda: synthesize(p))
    for name, route in routes.items():
        k_reference, reference = _breakdown_or_chain(route)
        assert k_reference == k
        if k is None:
            diag_atol, off_rtol = SHORT_CHAIN_BOUNDS[name]
            _assert_oracle_agrees(chain, reference.diagonal, reference.offdiagonal, diag_atol * n, off_rtol * n)


def test_size_guard_names_largest_feasible_n(monkeypatch):
    # 3 dense N x N float64 arrays: 1 MiB of memory holds N = 209, not 210
    monkeypatch.setattr(synthesis, "_physical_memory", lambda: 2**20)
    synthesize(SimulationParams(209, 0.5, 2.0))
    with pytest.raises(ValidationError, match="largest feasible N is 209"):
        synthesize(SimulationParams(210, 0.5, 2.0))


def test_size_guard_runs_before_any_allocation(monkeypatch):
    monkeypatch.setattr(synthesis, "_physical_memory", lambda: 2**20)

    def no_allocation(*args, **kwargs):
        raise AssertionError("spectrum built before the size check")

    monkeypatch.setattr(synthesis, "log_spectrum", no_allocation)
    with pytest.raises(ValidationError, match="N = 1000000 needs"):
        synthesize(SimulationParams(10**6, 0.5, 2.0))


def test_householder_two_by_two_noop():
    m = np.array([[1.0, 2.0], [2.0, -1.0]])
    tri, q, vs = householder_tridiagonalize(m)
    assert vs == []
    np.testing.assert_allclose(tri.to_dense(), m, atol=0)


def test_synthesize_golden():
    tri = synthesize(GOLDEN_PARAMS)
    np.testing.assert_allclose(tri.diagonal, GOLDEN_DIAG, atol=2e-3)
    np.testing.assert_allclose(tri.offdiagonal, GOLDEN_OFF, atol=2e-3)


def test_synthesize_single_site():
    tri = synthesize(SimulationParams(1, 1.0, 2.0))
    assert tri.diagonal.tolist() == [0.0]
    assert tri.offdiagonal.size == 0


def test_synthesize_two_site_closed_form():
    # 2x2 inverse eigenvalue algebra: b0 = sum w_n lam_n,
    # j = sqrt(sum w_n lam_n^2 - b0^2), b1 = lam_0 + lam_1 - b0
    p = SimulationParams(2, 1.0, 2.0)
    lam = log_spectrum(p)
    w = riemann_amplitudes(p).amplitudes ** 2
    b0 = float(w @ lam)
    j = math.sqrt(float(w @ lam**2) - b0 * b0)
    b1 = lam.sum() - b0
    tri = synthesize(p)
    np.testing.assert_allclose(tri.diagonal, [b0, b1], atol=1e-14)
    np.testing.assert_allclose(tri.offdiagonal, [j], atol=1e-14)


@pytest.mark.parametrize("n", [5, 50, 200])
@pytest.mark.parametrize("a,sigma", [(0.5, 2.0), (1.0, 1.5)])
def test_synthesize_spectrum_and_overlap_fidelity(n, a, sigma):
    p = SimulationParams(n, a, sigma)
    tri = synthesize(p)
    lam, vec = np.linalg.eigh(tri.to_dense())
    np.testing.assert_allclose(lam, log_spectrum(p), atol=1e-9 * n)
    np.testing.assert_allclose(
        np.abs(vec[0, :]), riemann_amplitudes(p).amplitudes, atol=1e-9
    )


def test_lanczos_matches_golden():
    p = GOLDEN_PARAMS
    tri = lanczos_synthesis(log_spectrum(p), riemann_amplitudes(p))
    np.testing.assert_allclose(tri.diagonal, GOLDEN_DIAG, atol=2e-3)
    np.testing.assert_allclose(tri.offdiagonal, GOLDEN_OFF, atol=2e-3)


def test_lanczos_single_node():
    tri = lanczos_synthesis(np.array([0.7]), np.array([1.0]))
    assert tri.diagonal.tolist() == [0.7]


def test_lanczos_cross_checks_householder_on_random_measures():
    rng = np.random.default_rng(42)
    for _ in range(5):
        n = 8
        nodes = np.sort(rng.uniform(-1.0, 3.0, n))
        nodes += np.arange(n) * 1e-3  # enforce separation
        c = rng.uniform(0.1, 1.0, n)
        c /= np.linalg.norm(c)
        via_lanczos = lanczos_synthesis(nodes, c)
        t = orthogonal_completion(c)
        dense = t.T @ (nodes[:, None] * t)
        tri, _, _ = householder_tridiagonalize(0.5 * (dense + dense.T))
        fixed = synthesis._jacobi_chain(tri.diagonal, tri.offdiagonal)
        np.testing.assert_allclose(via_lanczos.diagonal, fixed.diagonal, atol=1e-8)
        np.testing.assert_allclose(via_lanczos.offdiagonal, fixed.offdiagonal, atol=1e-8)


def _assert_oracle_agrees(tri, diagonal, offdiagonal, diag_atol, off_rtol):
    np.testing.assert_allclose(tri.diagonal, diagonal, rtol=0, atol=diag_atol)
    np.testing.assert_allclose(tri.offdiagonal, offdiagonal, rtol=off_rtol, atol=0)


# Measured worst gaps on this grid (N = 1000): diagonal 1.7e-13 absolute and
# hoppings 2.2e-12 relative against the reference loop, 3.4e-13 and 4.2e-12
# against synthesize; both grow about linearly in N.  Bounds: 2e-15 * N
# absolute on the diagonal, 2e-14 * N relative on the hoppings.
@pytest.mark.parametrize("sigma", [1.05, 2.0, 5.0, 20.0, 40.0])
@pytest.mark.parametrize("a", [0.05, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 2, 5, 64, 200, 1000])
def test_lanczos_agrees_with_reference_loop_and_pipeline(n, a, sigma):
    p = SimulationParams(n, a, sigma)
    e, c = log_spectrum(p), riemann_amplitudes(p).amplitudes
    step, reference = _breakdown_or_chain(lambda: lanczos_reference(e, c))
    if step is not None:
        # a = 0.05 at sigma >= 20: the weight beyond site 0 is below the floor
        with pytest.raises(DisconnectedChain, match=f"J_{step} "):
            lanczos_synthesis(e, c)
        with pytest.raises(DisconnectedChain, match=f"J_{step} "):
            synthesize(p)
        return
    tri = lanczos_synthesis(e, c)
    diag_atol, off_rtol = 2e-15 * n, 2e-14 * n
    _assert_oracle_agrees(tri, *reference, diag_atol, off_rtol)
    pipeline = synthesize(p)
    _assert_oracle_agrees(tri, pipeline.diagonal, pipeline.offdiagonal, diag_atol, off_rtol)


def _rkpw_mp(nodes, weights):
    """Scalar RKPW in Gautschi's OPQ form (lanczos.m): site energies and squared couplings.

    The first squared coupling is the total weight; the rest are the squared hoppings.
    """
    alpha, beta = list(nodes), [weights[0]] + [mpmath.mpf(0)] * (len(nodes) - 1)
    for n in range(len(nodes) - 1):
        pn, x, gam, sig, t = weights[n + 1], nodes[n + 1], mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
        for k in range(n + 2):
            rho = beta[k] + pn
            tmp, tsig = gam * rho, sig
            gam, sig = (beta[k] / rho, pn / rho) if rho > 0 else (mpmath.mpf(1), mpmath.mpf(0))
            tk = sig * (alpha[k] - x) - gam * t
            alpha[k] -= tk - t
            t = tk
            pn = t * t / sig if sig > 0 else tsig * beta[k]
            beta[k] = tmp
    return alpha, beta


@functools.lru_cache(maxsize=None)
def _mp_riemann_chain(n, a, sigma):
    """The Riemann chain from exact nodes ln(n+a) and weights (a/(n+a))**sigma at 60 digits."""
    with mpmath.workdps(60):
        x = mpmath.mpf(a)
        alpha, beta = _rkpw_mp([mpmath.log(k + x) for k in range(n)], [(x / (k + x)) ** sigma for k in range(n)])
        return np.array([float(v) for v in alpha]), np.array([float(mpmath.sqrt(v)) for v in beta[1:]])


# Worst gaps to the 60-digit chain, which matched a 120-digit one to the last
# double, over these cases: hoppings relative, site energies relative to the
# spectral width ln((N-1+a)/a), since B_n can come close to 0 at a < 1.  Each
# worst gap is at N = 200, a = 1, sigma = 10.
#   synthesize:        J 3.5e-13, B 6.7e-15
#   lanczos_synthesis: J 1.9e-13, B 5.4e-15
# Bounds (J, B) about 10x that.
MPMATH_BOUNDS = {"synthesize": (3.5e-12, 7e-14), "lanczos_synthesis": (2e-12, 6e-14)}


@pytest.mark.parametrize("route", sorted(MPMATH_BOUNDS))
@pytest.mark.parametrize("n,a,sigma", [(64, 0.5, 20.0), (120, 0.5, 40.0), (200, 0.5, 2.0), (64, 0.05, 5.0), (200, 1.0, 10.0)])
def test_both_routes_match_a_60_digit_rkpw_entrywise(route, n, a, sigma):
    p = SimulationParams(n, a, sigma)
    diagonal, hoppings = _mp_riemann_chain(n, a, sigma)
    if route == "synthesize":
        tri = synthesize(p)
    else:
        tri = lanczos_synthesis(log_spectrum(p), riemann_amplitudes(p))
    hop_rtol, diag_rtol = MPMATH_BOUNDS[route]
    assert (np.abs(tri.offdiagonal - hoppings) / hoppings).max() <= hop_rtol
    assert np.abs(tri.diagonal - diagonal).max() / math.log((n - 1 + a) / a) <= diag_rtol


@pytest.mark.parametrize(
    "p",
    [SimulationParams(1, 1.0, 2.0), SimulationParams(5, 0.5, 2.0), SimulationParams(64, 0.5, 20.0), SimulationParams(200, 1.0, 10.0)],
    ids=lambda p: f"n{p.n_levels}",
)
def test_chain_builders_read_the_amplitude_record_as_its_array(p):
    record = riemann_amplitudes(p)
    np.testing.assert_array_equal(orthogonal_completion(record), orthogonal_completion(record.amplitudes))
    e = log_spectrum(p)
    from_record, from_array = lanczos_synthesis(e, record), lanczos_synthesis(e, record.amplitudes)
    np.testing.assert_array_equal(from_record.diagonal, from_array.diagonal)
    np.testing.assert_array_equal(from_record.offdiagonal, from_array.offdiagonal)


_MEASURE_RNG = np.random.default_rng(5)
_RIEMANN_200 = SimulationParams(200, 0.5, 2.0)
# (nodes, amplitudes, tolerance relative to max |node|); each tolerance is about
# 10x the worst gap of the RKPW chase to the reference loop over seeds 0-4 of the
# same recipe.  The chase is tested alone: lanczos_synthesis is accurate to
# eps * |A| absolute, so on mixed_sign_120 its smallest hoppings are off by 8.9e-9
# relative, and no caller hands it such a measure.
RANDOM_MEASURES = {
    # measured 1.9e-15
    "unsorted_50": (
        _MEASURE_RNG.permutation(np.linspace(-1.0, 3.0, 50)) + _MEASURE_RNG.uniform(0.0, 1e-3, 50),
        _MEASURE_RNG.uniform(0.1, 1.0, 50),
        5e-14,
    ),
    # measured 1.3e-12; weights span eight decades
    "mixed_sign_120": (
        10.0 * _MEASURE_RNG.standard_normal(120),
        10.0 ** _MEASURE_RNG.uniform(-8.0, 0.0, 120),
        1e-11,
    ),
    # measured 1.9e-11: six clusters of ten nodes 1e-4 apart, shuffled.  Against
    # a 60-digit RKPW the reference loop is off by ~2e-12 and the chase by ~2e-11
    "clustered_60": (
        (np.repeat(np.arange(6.0), 10) + 1e-4 * np.tile(np.arange(10.0), 6))[_MEASURE_RNG.permutation(60)],
        _MEASURE_RNG.uniform(0.1, 1.0, 60),
        2e-10,
    ),
    # measured 8.5e-14: the Riemann measure, largest node first
    "riemann_reversed_200": (
        log_spectrum(_RIEMANN_200)[::-1].copy(),
        riemann_amplitudes(_RIEMANN_200).amplitudes[::-1].copy(),
        1e-12,
    ),
}


@pytest.mark.parametrize("name", sorted(RANDOM_MEASURES))
def test_rkpw_matches_reference_loop_on_random_measures(name):
    nodes, amps, tol = RANDOM_MEASURES[name]
    tri = SymmetricTridiagonal(*synthesis._rkpw(nodes, amps))
    _assert_oracle_agrees(tri, *lanczos_reference(nodes, amps), tol * np.abs(nodes).max(), tol)


def test_lanczos_breaks_down_after_the_heavy_nodes():
    # three nodes carry all but 7e-40 of the weight, so J_2 ~ 1e-18 is the first below the floor
    nodes = np.linspace(0.0, 1.0, 10)
    amps = np.array([0.6, 0.5, 0.4] + [1e-20] * 7)
    with pytest.raises(DisconnectedChain, match="J_2 "):
        lanczos_reference(nodes, amps)
    with pytest.raises(DisconnectedChain, match="J_2 "):
        lanczos_synthesis(nodes, amps)


def test_rkpw_chase_overflows_to_a_non_finite_hopping():
    # the exact chain is finite (J_0 = 9.6e307), but the chase overflows on the way
    with np.errstate(over="ignore", invalid="ignore"):
        _, hoppings = synthesis._rkpw(np.array([-1e308, 1e308]), np.array([0.6, 0.8]))
    assert hoppings.tolist() == [math.inf]


def test_synthesize_maps_a_non_finite_hopping_to_disconnected_chain(monkeypatch):
    # a NaN from the chase ends as a breakdown (exit 3), not as an invalid matrix (exit 2)
    monkeypatch.setattr(synthesis, "_rkpw", lambda e, c: (np.zeros(3), np.array([0.5, math.nan])))
    with pytest.raises(DisconnectedChain, match=r"hopping J_1 = nan collapsed below 1e-12"):
        synthesize(SimulationParams(3, 0.5, 2.0))


def test_synthesize_memory_is_linear_in_n():
    # at N = n_min(1.2) one N x N float64 array is 78 MB; the chase peaked at 0.19 MB
    p = SimulationParams(3125, 0.5, 1.2)
    tracemalloc.start()
    try:
        synthesize(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * p.n_levels**2 / 100


def test_lanczos_input_validation():
    with pytest.raises(ValidationError):
        lanczos_synthesis(np.array([1.0, 1.0]), np.array([0.6, 0.8]))
    with pytest.raises(ValidationError):
        lanczos_synthesis(np.array([1.0, 2.0]), np.array([1.0, -0.1]))
    with pytest.raises(DimensionMismatch):
        lanczos_synthesis(np.array([1.0, 2.0]), np.array([1.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["nodes", "weights"])
def test_lanczos_refuses_a_non_finite_measure_before_allocating(where, bad, monkeypatch):
    # NaN passes both "distinct" and "positive" comparisons, and one inf node is distinct
    def no_allocation(n):
        raise AssertionError("reached the size check with a non-finite measure")

    monkeypatch.setattr(synthesis, "_check_dense_fits", no_allocation)
    measure = {"nodes": np.array([0.0, 1.0, 2.0]), "weights": np.full(3, 0.5)}
    measure[where][1] = bad
    with pytest.raises(ValidationError, match=f"{where} must be finite"):
        lanczos_synthesis(measure["nodes"], measure["weights"])


@pytest.mark.parametrize("bad,shown", [(-1e-13, "1.000e-13"), (-math.inf, "inf"), (math.nan, "nan")])
def test_jacobi_chain_names_the_first_bad_hopping(bad, shown):
    # J_2 = 0 is below the floor too, but J_1 comes first
    with pytest.raises(DisconnectedChain, match=f"^hopping J_1 = {shown} collapsed below 1e-12$"):
        synthesis._jacobi_chain(np.zeros(4), np.array([-0.5, bad, 0.0]))


# sigma = 60 at a = 0.1 puts all but ~1e-62 of the weight on site 0,
# so the first hopping is 1.374e-31, below the 1e-12 floor of both routes
BREAKDOWN_PARAMS = SimulationParams(30, 0.1, 60.0)


def test_synthesize_reports_disconnected_chain():
    with pytest.raises(DisconnectedChain, match=r"J_0 = 1\.374e-31"):
        synthesize(BREAKDOWN_PARAMS)


def test_lanczos_breaks_down_at_step_0():
    with pytest.raises(DisconnectedChain, match="J_0 "):
        lanczos_synthesis(log_spectrum(BREAKDOWN_PARAMS), riemann_amplitudes(BREAKDOWN_PARAMS))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_tridiagonal_rejects_non_finite_entries(bad):
    with pytest.raises(ValidationError, match="finite"):
        SymmetricTridiagonal(np.array([0.0, bad]), np.array([0.5]))
    with pytest.raises(ValidationError, match="finite"):
        SymmetricTridiagonal(np.array([0.0, 1.0]), np.array([bad]))
