"""Map the golden chain onto hardware: spin-chain table and waveguide layout.

Shows the spin identification (the chain is the one-excitation block of
the XY Hamiltonian stated in zetachain.design, so J and B carry over
unchanged), checks the waveguide design round trip (exponential coupling
law and bend-induced detunings), and prints the exported JSON document.
"""

import numpy as np

from zetachain import (
    FabricationConstants,
    SimulationParams,
    spin_chain_params,
    synthesize,
    waveguide_design_json,
    waveguide_layout,
)

tri = synthesize(SimulationParams(n_levels=5, a=0.5, sigma=2.0))

chain = spin_chain_params(tri)
print("spin chain: couplings J =", np.round(chain.couplings, 3))
print("            fields    B =", np.round(chain.fields, 3))
print()

fab = FabricationConstants(
    kappa=2.0,          # coupling scale, 1/length
    alpha=1.0,          # evanescent decay constant, 1/length
    bend_radius=300.0,  # axis curvature radius
    lambda_bar=1e-3,    # wavelength / 2 pi
    n_substrate=1.5,
)

design = waveguide_layout(tri, fab)
print("round trip: max coupling rel err",
      np.abs(design.couplings() / tri.offdiagonal - 1.0).max(),
      "| max detuning-difference rel err",
      np.abs(design.field_differences() / np.diff(tri.diagonal) - 1.0).max(), "\n")

print(waveguide_design_json(design))
