"""Walk through the N = 5 synthesis pipeline step by step.

Builds the chain for (N, a, sigma) = (5, 0.5, 2), printing every
intermediate: the logarithmic spectrum, the thermal-phase amplitudes,
the orthogonal completion, the dense conjugated Hamiltonian, the
Householder reflectors, and the final chain with positive hoppings.
"""

import numpy as np

from zetachain import (
    SimulationParams,
    SymmetricTridiagonal,
    householder_tridiagonalize,
    lanczos_synthesis,
    log_spectrum,
    orthogonal_completion,
    riemann_amplitudes,
    similarity_transform,
    verify_synthesis,
)

np.set_printoptions(precision=3, suppress=True)

params = SimulationParams(n_levels=5, a=0.5, sigma=2.0)

spectrum = log_spectrum(params)
print("target spectrum ln(n + a):")
print(spectrum, "\n")

amps = riemann_amplitudes(params)
print("ground-site overlaps C_n (unit norm):")
print(amps.amplitudes, "\n")

basis = orthogonal_completion(amps)
print("orthogonal completion T (first column = C):")
print(basis, "\n")

dense = similarity_transform(spectrum, basis)
print("conjugated Hamiltonian T^T diag(E) T:")
print(dense, "\n")

tri, q, reflectors = householder_tridiagonalize(dense)
print("Householder reflectors (unit vectors, growing leading zeros):")
for v in reflectors:
    print(" ", v)
print()

# |J| is tri conjugated by diag(+-1): same eigenvalues, same |first eigenvector row|
chain = SymmetricTridiagonal(tri.diagonal, np.abs(tri.offdiagonal))
print("chain with positive hoppings:")
print("  site energies B:", chain.diagonal)
print("  hoppings     J:", chain.offdiagonal, "\n")

cross = lanczos_synthesis(spectrum, amps)
print("bordered-reduction cross-oracle agrees to",
      np.abs(cross.to_dense() - chain.to_dense()).max())

report = verify_synthesis(chain, params)
print(f"fidelity: eigenvalue error {report.max_eigenvalue_error:.2e}, "
      f"overlap error {report.max_overlap_error:.2e}")
