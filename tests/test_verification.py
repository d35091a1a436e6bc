import numpy as np
import pytest

from zetachain import synthesis
from zetachain import (
    DimensionMismatch,
    SimulationParams,
    SymmetricTridiagonal,
    ValidationError,
    eigh_tridiagonal,
    log_spectrum,
    riemann_amplitudes,
    synthesize,
    verify_synthesis,
)

# golden chain as printed (3 decimals)
GOLDEN_TRI = SymmetricTridiagonal(
    np.array([-0.479, 0.701, 0.894, 1.062, 1.208]),
    np.array([0.520, 0.445, 0.311, 0.198]),
)


def test_eigh_golden_matrix_recovers_log_spectrum():
    dec = eigh_tridiagonal(GOLDEN_TRI)
    target = np.log(np.array([0.5, 1.5, 2.5, 3.5, 4.5]))
    np.testing.assert_allclose(dec.eigenvalues, target, atol=1e-3)


def test_eigh_diagonal_input():
    tri = SymmetricTridiagonal(np.array([3.0, -1.0, 2.0]), np.zeros(2))
    dec = eigh_tridiagonal(tri)
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 2.0, 3.0], atol=1e-14)
    # eigenvectors are a signed permutation of the identity
    np.testing.assert_allclose(np.abs(dec.eigenvectors), np.eye(3)[:, [1, 2, 0]], atol=1e-14)


def test_eigh_two_by_two_swap():
    tri = SymmetricTridiagonal(np.zeros(2), np.array([1.0]))
    dec = eigh_tridiagonal(tri)
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-15)
    r = 1.0 / np.sqrt(2.0)
    # each column is defined up to sign; the antisymmetric one belongs to -1
    np.testing.assert_allclose(np.abs(dec.eigenvectors), [[r, r], [r, r]], atol=1e-15)
    assert dec.eigenvectors[0, 0] * dec.eigenvectors[1, 0] < 0.0 < dec.eigenvectors[0, 1] * dec.eigenvectors[1, 1]


def test_eigh_single_site():
    tri = SymmetricTridiagonal(np.array([0.25]), np.empty(0))
    dec = eigh_tridiagonal(tri)
    assert dec.eigenvalues.tolist() == [0.25]
    assert dec.eigenvectors.tolist() == [[1.0]]


@pytest.mark.parametrize("n,a,sigma", [(5, 0.5, 2.0), (40, 1.0, 1.5), (120, 0.3, 3.0)])
def test_eigh_invariants_on_synthesized_chains(n, a, sigma):
    p = SimulationParams(n, a, sigma)
    tri = synthesize(p)
    dec = eigh_tridiagonal(tri)
    h = tri.to_dense()
    assert np.abs(dec.eigenvectors.T @ dec.eigenvectors - np.eye(n)).max() < 1e-11
    resid = np.abs(h @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues).max()
    assert resid < 1e-10 * np.abs(h).max()
    assert np.all(np.diff(dec.eigenvalues) > 0.0)
    # all weights positive: no first component vanishes, whatever the column signs
    assert np.all(np.abs(dec.eigenvectors[0, :]) > 0.0)


def test_verify_synthesis_round_trip():
    p = SimulationParams(5, 0.5, 2.0)
    report = verify_synthesis(synthesize(p), p)
    assert report.max_eigenvalue_error < 1e-10
    assert report.max_overlap_error < 1e-10
    assert report.passed


def test_verify_synthesis_single_site():
    p = SimulationParams(1, 1.0, 2.0)
    report = verify_synthesis(synthesize(p), p)
    assert report.max_eigenvalue_error < 1e-15
    assert report.max_overlap_error < 1e-15


def test_verify_synthesis_on_printed_golden_matrix():
    # printed to 3 decimals, so errors sit near the rounding level
    report = verify_synthesis(GOLDEN_TRI, SimulationParams(5, 0.5, 2.0), 5e-3, 5e-3)
    assert report.max_eigenvalue_error < 2e-3
    assert report.max_overlap_error < 2e-3
    assert report.passed


def test_verify_synthesis_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        verify_synthesis(GOLDEN_TRI, SimulationParams(4, 0.5, 2.0))


@pytest.mark.parametrize("tols", [dict(tol_lambda="1e-9"), dict(tol_overlap="1e-9")])
def test_verify_synthesis_refuses_a_str_tolerance(tols):
    # math.isfinite raised a raw TypeError on a str
    p = SimulationParams(5, 0.5, 2.0)
    with pytest.raises(ValidationError, match="tol_.* must be positive and finite"):
        verify_synthesis(synthesize(p), p, **tols)


def test_first_eigenvector_row_equals_amplitudes():
    # diagonalizing the synthesized chain recovers the prescribed overlaps
    p = SimulationParams(5, 0.5, 2.0)
    dec = eigh_tridiagonal(synthesize(p))
    np.testing.assert_allclose(
        np.abs(dec.eigenvectors[0, :]), riemann_amplitudes(p).amplitudes, atol=1e-12
    )
    np.testing.assert_allclose(dec.eigenvalues, log_spectrum(p), atol=1e-12)


def test_gauge_invariance_of_eigendata():
    # the property that lets both synthesis routes take |J|
    diag = np.array([0.3, -0.1, 0.8, 1.4])
    tri = SymmetricTridiagonal(diag, np.array([0.5, -0.4, 0.2]))
    fixed = synthesis._jacobi_chain(diag, tri.offdiagonal)
    np.testing.assert_array_equal(fixed.offdiagonal, [0.5, 0.4, 0.2])
    dec_a = eigh_tridiagonal(tri)
    dec_b = eigh_tridiagonal(fixed)
    np.testing.assert_allclose(dec_a.eigenvalues, dec_b.eigenvalues, atol=1e-12)
    np.testing.assert_allclose(
        np.abs(dec_a.eigenvectors[0, :]), np.abs(dec_b.eigenvectors[0, :]), atol=1e-12
    )

